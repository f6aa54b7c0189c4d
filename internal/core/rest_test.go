package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/tlsutil"
)

// TestRESTSessionIdentityPerConnection: the session a request gets is
// named by the fingerprint of its client certificate, computed once
// per connection into the slot ConnContext installs, and clients with
// different certificates get different sessions.
func TestRESTSessionIdentityPerConnection(t *testing.T) {
	h := newHarness(t, 1, nil)
	ca, err := tlsutil.NewCA("test-ca")
	if err != nil {
		t.Fatal(err)
	}
	serverID, err := ca.IssueServer("pesos", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	rest := NewREST(h.ctl)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sess, err := rest.session(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnauthorized)
			return
		}
		if slot, ok := r.Context().Value(connIdentityKey{}).(*connIdentity); !ok || slot.fp != sess.clientKey {
			http.Error(w, "connection identity slot not filled", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, sess.clientKey)
	}))
	srv.TLS = tlsutil.ServerConfig(serverID, ca.Pool())
	srv.Config.ConnContext = rest.ConnContext
	srv.StartTLS()
	defer srv.Close()

	sessionOf := func(cl *http.Client) string {
		t.Helper()
		resp, err := cl.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s %v", resp.StatusCode, body, err)
		}
		return string(body)
	}
	var keys []string
	for _, name := range []string{"alice", "bob"} {
		id, err := ca.IssueClient(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := &http.Transport{TLSClientConfig: tlsutil.ClientConfig(id, ca.Pool(), "127.0.0.1")}
		defer tr.CloseIdleConnections()
		cl := &http.Client{Transport: tr}
		want, err := tlsutil.CertFingerprint(id.Cert)
		if err != nil {
			t.Fatal(err)
		}
		// Two requests: the second rides the kept-alive connection and
		// reads the memoised identity.
		for i := 0; i < 2; i++ {
			if got := sessionOf(cl); got != want {
				t.Fatalf("%s request %d: session %q, want certificate fingerprint %q", name, i, got, want)
			}
		}
		keys = append(keys, want)
	}
	if keys[0] == keys[1] {
		t.Fatal("clients with different certificates share a session")
	}
}
