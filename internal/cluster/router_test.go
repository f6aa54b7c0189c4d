package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
)

// TestRouterRedirectsWrongShardOnEveryCall: each single-key router
// call — the v1 GET and the v2 GET, PUT and DELETE it dispatches —
// answered 421 wrong_shard by a stale owner refreshes the map and
// re-dispatches to the new owner, exactly once.
func TestRouterRedirectsWrongShardOnEveryCall(t *testing.T) {
	const key = "load/0014"
	var moved atomic.Bool
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		moved.Store(true)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(core.CodeWrongShard.HTTPStatus())
		json.NewEncoder(w).Encode(map[string]any{"error": &core.WireError{
			Code: core.CodeWrongShard, Message: "key not owned by this shard"}})
	}))
	defer stale.Close()
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Pesos-Version", "0")
		if r.Method == http.MethodGet {
			w.Write([]byte("value"))
			return
		}
		json.NewEncoder(w).Encode(client.OpResult{Key: key})
	}))
	defer owner.Close()

	mapKey := testKey(t)
	docFor := func(epoch uint64, endpoint string) []byte {
		m, err := UniformMap([]Shard{{ID: 0, Endpoint: endpoint, Drives: []string{"k-0"}, Replicas: 1}})
		if err != nil {
			t.Fatal(err)
		}
		m.Epoch = epoch
		doc, err := SignMap(mapKey, m)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	before, after := docFor(1, stale.URL), docFor(2, owner.URL)

	ctx := context.Background()
	calls := map[string]func(r *Router) error{
		"v1 GET": func(r *Router) error {
			v, _, err := r.Get(ctx, key, client.GetOptions{})
			if err == nil && !bytes.Equal(v, []byte("value")) {
				t.Errorf("v1 GET: value %q", v)
			}
			return err
		},
		"v2 GET": func(r *Router) error {
			body, _, err := r.GetStream(ctx, key, client.GetOptions{})
			if err != nil {
				return err
			}
			defer body.Close()
			_, err = io.ReadAll(body)
			return err
		},
		"v2 PUT": func(r *Router) error {
			res, err := r.Put(ctx, key, []byte("v"), client.PutOptions{})
			if err == nil && res.Err != nil {
				return res.Err
			}
			return err
		},
		"v2 DELETE": func(r *Router) error {
			res, err := r.Delete(ctx, key)
			if err == nil && res.Err != nil {
				return res.Err
			}
			return err
		},
	}
	for name, call := range calls {
		moved.Store(false)
		r, err := NewRouter(RouterConfig{
			Source: MapSourceFunc(func(context.Context) ([]byte, error) {
				if moved.Load() {
					return after, nil
				}
				return before, nil
			}),
			Key: mapKey,
			NewClient: func(s Shard) (*client.Client, error) {
				return client.New(client.Config{BaseURL: s.Endpoint}), nil
			},
			RedirectBackoff: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := call(r); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := r.Stats().Redirects.Load(); got != 1 {
			t.Errorf("%s: %d redirects, want 1", name, got)
		}
	}
}
