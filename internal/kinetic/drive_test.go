package kinetic

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kinetic/wire"
)

// signedReq builds and signs a request under the factory account.
func signedReq(m *wire.Message) *wire.Message {
	m.User = DefaultAdminIdentity
	m.Sign(DefaultAdminKey)
	return m
}

func TestDrivePutGetDelete(t *testing.T) {
	d := NewDrive(Config{Name: "t0"})
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v"), NewVersion: []byte("1"), Force: true,
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("put: %v %s", resp.Status, resp.StatusMsg)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if resp.Status != wire.StatusOK || !bytes.Equal(resp.Value, []byte("v")) || !bytes.Equal(resp.DBVersion, []byte("1")) {
		t.Fatalf("get: %+v", resp)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TDelete, Key: []byte("k"), DBVersion: []byte("1")}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("delete: %v", resp.Status)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("get after delete: %v", resp.Status)
	}
}

// framedPut encodes a signed PUT of key=value under the factory
// account as the frame body a drive receives.
func framedPut(t *testing.T, key, value string) []byte {
	t.Helper()
	var frame bytes.Buffer
	m := &wire.Message{Type: wire.TPut, User: DefaultAdminIdentity,
		Key: []byte(key), Value: []byte(value), NewVersion: []byte("1"), Force: true}
	if err := wire.NewEncoder().WriteFrame(&frame, m, DefaultAdminKey); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()[5:]
}

// TestDriveRejectsTamperedFrames: a drive answers HMAC_FAILURE, counts
// a rejection and stores nothing for a received PUT whose value byte
// was flipped, that carries a field after its HMAC or a second HMAC,
// or that was truncated before its HMAC.
func TestDriveRejectsTamperedFrames(t *testing.T) {
	body := framedPut(t, "k", "payload")
	const hmacField = 2 + 32 // tag, length, SHA-256 tag
	clone := func() []byte { return append([]byte(nil), body...) }
	flipped := clone()
	flipped[bytes.Index(body, []byte("payload"))] ^= 0x01
	tampered := map[string][]byte{
		"flipped value byte": flipped,
		"field after HMAC":   append(clone(), 0x1b, 8, 0, 0, 0, 0, 0, 0, 0, 9), // a trace id
		"duplicate HMAC":     append(clone(), body[len(body)-hmacField:]...),
		"truncated":          clone()[:len(body)-hmacField],
	}
	d := NewDrive(Config{Name: "t0"})
	for name, b := range tampered {
		var req wire.Message
		if err := req.Unmarshal(b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := d.Stats().Rejected.Load()
		if resp := d.Handle(&req); resp.Status != wire.StatusHMACFailure {
			t.Errorf("%s: status %v, want %v", name, resp.Status, wire.StatusHMACFailure)
		}
		if d.Stats().Rejected.Load() != before+1 {
			t.Errorf("%s: rejection not counted", name)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("tampered puts stored %d keys", d.Len())
	}
}

// TestDriveStoredValueOwnsFrame: the drive keeps a PUT's value as a
// slice of the request frame, so reading the next request from the
// same connection reader must leave the stored value intact.
func TestDriveStoredValueOwnsFrame(t *testing.T) {
	var conn bytes.Buffer
	for _, kv := range [][2]string{{"a", "first value"}, {"b", "SECOND VALUE"}} {
		body := framedPut(t, kv[0], kv[1])
		conn.Write([]byte{wire.Magic, 0, 0, 0, byte(len(body))})
		conn.Write(body)
	}
	r := bufio.NewReader(&conn)
	d := NewDrive(Config{Name: "t0"})
	var first, second wire.Message
	if err := wire.ReadFrame(r, &first); err != nil {
		t.Fatal(err)
	}
	if resp := d.Handle(&first); resp.Status != wire.StatusOK {
		t.Fatalf("put a: %v", resp.Status)
	}
	if err := wire.ReadFrame(r, &second); err != nil {
		t.Fatal(err)
	}
	if resp := d.Handle(&second); resp.Status != wire.StatusOK {
		t.Fatalf("put b: %v", resp.Status)
	}
	if string(first.Value) != "first value" {
		t.Fatalf("first request's value changed to %q", first.Value)
	}
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("a")}))
	if string(resp.Value) != "first value" {
		t.Fatalf("stored value changed to %q", resp.Value)
	}
}

func TestDriveVersionCAS(t *testing.T) {
	d := NewDrive(Config{})
	// Create with expected-absent (no DBVersion).
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v1"), NewVersion: []byte("a"),
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("create: %v", resp.Status)
	}
	// Update with wrong expected version fails.
	resp = d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v2"),
		DBVersion: []byte("WRONG"), NewVersion: []byte("b"),
	}))
	if resp.Status != wire.StatusVersionMismatch {
		t.Fatalf("cas mismatch: %v", resp.Status)
	}
	if !bytes.Equal(resp.DBVersion, []byte("a")) {
		t.Fatalf("mismatch response should carry stored version, got %q", resp.DBVersion)
	}
	// Correct expected version succeeds.
	resp = d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v2"),
		DBVersion: []byte("a"), NewVersion: []byte("b"),
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("cas update: %v", resp.Status)
	}
	// Creating over an existing key without version fails.
	resp = d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v3"), NewVersion: []byte("c"),
	}))
	if resp.Status != wire.StatusVersionMismatch {
		t.Fatalf("create over existing: %v", resp.Status)
	}
	// Force overrides.
	resp = d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v3"), NewVersion: []byte("c"), Force: true,
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("force put: %v", resp.Status)
	}
	// Delete with wrong version fails.
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TDelete, Key: []byte("k"), DBVersion: []byte("x")}))
	if resp.Status != wire.StatusVersionMismatch {
		t.Fatalf("delete wrong version: %v", resp.Status)
	}
}

func TestDriveAuth(t *testing.T) {
	d := NewDrive(Config{})
	// Unknown user.
	m := &wire.Message{Type: wire.TGet, Key: []byte("k"), User: "nobody"}
	m.Sign([]byte("whatever"))
	if resp := d.Handle(m); resp.Status != wire.StatusNoSuchUser {
		t.Fatalf("unknown user: %v", resp.Status)
	}
	// Known user, wrong key.
	m = &wire.Message{Type: wire.TGet, Key: []byte("k"), User: DefaultAdminIdentity}
	m.Sign([]byte("wrong-secret"))
	if resp := d.Handle(m); resp.Status != wire.StatusHMACFailure {
		t.Fatalf("bad hmac: %v", resp.Status)
	}
	if d.Stats().Rejected.Load() != 2 {
		t.Fatalf("rejected counter = %d, want 2", d.Stats().Rejected.Load())
	}
}

func TestDrivePermissions(t *testing.T) {
	d := NewDrive(Config{})
	// Install a read-only account plus an admin.
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TSecurity, ACLs: []wire.ACL{
		{Identity: "admin", Key: []byte("adminsecret1"), Perms: wire.PermAll},
		{Identity: "reader", Key: []byte("readersecret"), Perms: wire.PermRead},
	}}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("security: %v %s", resp.Status, resp.StatusMsg)
	}

	write := &wire.Message{Type: wire.TPut, Key: []byte("k"), Value: []byte("v"), Force: true, User: "reader"}
	write.Sign([]byte("readersecret"))
	if resp := d.Handle(write); resp.Status != wire.StatusNotAuthorized {
		t.Fatalf("reader write: %v", resp.Status)
	}

	// The old factory account is gone.
	old := signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")})
	if resp := d.Handle(old); resp.Status != wire.StatusNoSuchUser {
		t.Fatalf("factory account after takeover: %v", resp.Status)
	}

	read := &wire.Message{Type: wire.TGet, Key: []byte("k"), User: "reader"}
	read.Sign([]byte("readersecret"))
	if resp := d.Handle(read); resp.Status != wire.StatusNotFound {
		t.Fatalf("reader read: %v", resp.Status)
	}
}

func TestDriveSecurityValidation(t *testing.T) {
	d := NewDrive(Config{})
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TSecurity}))
	if resp.Status != wire.StatusInvalidRequest {
		t.Fatalf("empty ACL set: %v", resp.Status)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TSecurity, ACLs: []wire.ACL{
		{Identity: "x", Key: []byte("short"), Perms: wire.PermAll},
	}}))
	if resp.Status != wire.StatusInvalidRequest {
		t.Fatalf("weak key accepted: %v", resp.Status)
	}
}

func TestDriveRange(t *testing.T) {
	d := NewDrive(Config{})
	for i := 0; i < 20; i++ {
		d.Handle(signedReq(&wire.Message{
			Type: wire.TPut, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v"), Force: true,
		}))
	}
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TGetKeyRange, StartKey: []byte("k05"), EndKey: []byte("k10"),
		KeyInclusive: true, MaxReturned: 100,
	}))
	if resp.Status != wire.StatusOK || len(resp.Keys) != 6 {
		t.Fatalf("range: %v, %d keys", resp.Status, len(resp.Keys))
	}
	if string(resp.Keys[0]) != "k05" || string(resp.Keys[5]) != "k10" {
		t.Fatalf("range bounds: %q..%q", resp.Keys[0], resp.Keys[5])
	}
}

func TestDriveEraseWithPIN(t *testing.T) {
	d := NewDrive(Config{ErasePIN: []byte("1234")})
	d.Handle(signedReq(&wire.Message{Type: wire.TPut, Key: []byte("k"), Value: []byte("v"), Force: true}))
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TErase, Pin: []byte("wrong")}))
	if resp.Status != wire.StatusNotAuthorized {
		t.Fatalf("erase wrong pin: %v", resp.Status)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TErase, Pin: []byte("1234")}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("erase: %v", resp.Status)
	}
	if d.Len() != 0 {
		t.Fatalf("drive holds %d keys after erase", d.Len())
	}
}

func TestDriveP2P(t *testing.T) {
	peer := NewDrive(Config{Name: "peer"})
	d := NewDrive(Config{Name: "src", P2PDial: func(name string) (P2PTarget, error) {
		if name != "peer" {
			return nil, fmt.Errorf("unknown peer %s", name)
		}
		return peer, nil
	}})
	d.Handle(signedReq(&wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("replicated"), NewVersion: []byte("7"), Force: true,
	}))
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TP2PPush, Key: []byte("k"), Peer: "peer"}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("p2p push: %v %s", resp.Status, resp.StatusMsg)
	}
	v, ver, ok := peer.store.get([]byte("k"))
	if !ok || string(v) != "replicated" || string(ver) != "7" {
		t.Fatalf("peer copy: %q/%q/%v", v, ver, ok)
	}
	// Pushing a missing key reports not found.
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TP2PPush, Key: []byte("nope"), Peer: "peer"}))
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("p2p missing key: %v", resp.Status)
	}
}

func TestDriveGetLogAndVersion(t *testing.T) {
	d := NewDrive(Config{Name: "stats-drive"})
	d.Handle(signedReq(&wire.Message{Type: wire.TPut, Key: []byte("k"), Value: []byte("v"), NewVersion: []byte("9"), Force: true}))
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TGetLog}))
	if resp.Status != wire.StatusOK || resp.Log["name"] != "stats-drive" || resp.Log["keys"] != "1" {
		t.Fatalf("getlog: %+v", resp.Log)
	}
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGetVersion, Key: []byte("k")}))
	if resp.Status != wire.StatusOK || !bytes.Equal(resp.DBVersion, []byte("9")) {
		t.Fatalf("getversion: %v %q", resp.Status, resp.DBVersion)
	}
}

func TestDriveRejectsNonRequests(t *testing.T) {
	d := NewDrive(Config{})
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TGetResponse}))
	if resp.Status != wire.StatusInvalidRequest {
		t.Fatalf("response-typed message: %v", resp.Status)
	}
}

func TestHDDMediaModel(t *testing.T) {
	h := NewHDDMedia(1.0)
	small := h.ServiceTime(OpRead, 0)
	large := h.ServiceTime(OpRead, 1<<20)
	if large <= small {
		t.Fatal("transfer time should grow with size")
	}
	w := h.ServiceTime(OpWrite, 0)
	if w <= small {
		t.Fatal("writes should cost more than reads")
	}
	// Roughly 1 kIOP/s serial: service time near 1 ms.
	if small < 500e3 || small > 2e6 { // 0.5ms..2ms in ns
		t.Fatalf("positioning time %v outside HDD envelope", small)
	}
	// Scaled model shrinks proportionally.
	hs := NewHDDMedia(0.1)
	if got := hs.ServiceTime(OpRead, 0); got >= small {
		t.Fatalf("scaled service %v not smaller than %v", got, small)
	}
	if (SimMedia{}).ServiceTime(OpWrite, 1024) != 0 {
		t.Fatal("sim media should be free")
	}
}

// TestP2PAccountSurvivesTakeover: the drive-to-drive trust account
// configured at boot must keep authenticating after a controller
// takeover replaces the whole account table — live shard handoff
// pushes records between drives owned by different controllers.
func TestP2PAccountSurvivesTakeover(t *testing.T) {
	p2pKey := []byte("shared-p2p-secret")
	p2p := &wire.ACL{Identity: "kinetic-p2p", Key: p2pKey, Perms: wire.PermWrite}
	d := NewDrive(Config{Name: "t0", P2PAccount: p2p})

	// Controller takeover: replace the table with only its admin.
	resp := d.Handle(signedReq(&wire.Message{
		Type: wire.TSecurity,
		ACLs: []wire.ACL{{Identity: "pesos-admin", Key: []byte("admin-secret"), Perms: wire.PermAll}},
	}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("takeover: %v %s", resp.Status, resp.StatusMsg)
	}

	// The factory account is locked out...
	resp = d.Handle(signedReq(&wire.Message{Type: wire.TGet, Key: []byte("k")}))
	if resp.Status != wire.StatusNoSuchUser {
		t.Fatalf("factory account after takeover: %v", resp.Status)
	}

	// ...but a peer drive's P2P-credentialed put still lands.
	put := &wire.Message{
		Type: wire.TPut, Key: []byte("k"), Value: []byte("v"), NewVersion: []byte("1"), Force: true,
		User: p2p.Identity,
	}
	put.Sign(p2pKey)
	if resp = d.Handle(put); resp.Status != wire.StatusOK {
		t.Fatalf("p2p put after takeover: %v %s", resp.Status, resp.StatusMsg)
	}

	// The P2P account has WRITE only: it cannot replace accounts.
	sec := &wire.Message{
		Type: wire.TSecurity, User: p2p.Identity,
		ACLs: []wire.ACL{{Identity: "evil", Key: []byte("evil-secret"), Perms: wire.PermAll}},
	}
	sec.Sign(p2pKey)
	if resp = d.Handle(sec); resp.Status != wire.StatusNotAuthorized {
		t.Fatalf("p2p account changed security: %v", resp.Status)
	}
}

// rangeValues is a signed range read with values under the factory
// account.
func rangeValues(start, end string, max uint32) *wire.Message {
	return signedReq(&wire.Message{
		Type: wire.TGetKeyRange, StartKey: []byte(start), EndKey: []byte(end),
		KeyInclusive: true, MaxReturned: max, WithValues: true,
	})
}

func TestDriveRangeWithValues(t *testing.T) {
	d := NewDrive(Config{})
	for i := 0; i < 10; i++ {
		d.Handle(signedReq(&wire.Message{
			Type: wire.TPut, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte(fmt.Sprintf("v%02d", i)), Force: true,
		}))
	}
	resp := d.Handle(rangeValues("k03", "k07", 100))
	if resp.Status != wire.StatusOK || len(resp.Keys) != 5 || len(resp.Values) != 5 || resp.Truncated {
		t.Fatalf("range: %v, %d keys, %d values, truncated %v", resp.Status, len(resp.Keys), len(resp.Values), resp.Truncated)
	}
	for i, k := range resp.Keys {
		if want := "v" + string(k[1:]); string(resp.Values[i]) != want {
			t.Errorf("value of %q = %q, want %q", k, resp.Values[i], want)
		}
	}
	// The count cap alone is not a budget cut.
	if resp := d.Handle(rangeValues("k00", "k09", 4)); len(resp.Keys) != 4 || resp.Truncated {
		t.Fatalf("capped range: %d keys, truncated %v", len(resp.Keys), resp.Truncated)
	}
}

// TestDriveRangeValuesNeedRead: listing keys needs RANGE, returning
// their values needs READ as well.
func TestDriveRangeValuesNeedRead(t *testing.T) {
	d := NewDrive(Config{})
	seed := signedReq(&wire.Message{Type: wire.TPut, Key: []byte("k"), Value: []byte("secret"), Force: true})
	if resp := d.Handle(seed); resp.Status != wire.StatusOK {
		t.Fatalf("seed: %v", resp.Status)
	}
	resp := d.Handle(signedReq(&wire.Message{Type: wire.TSecurity, ACLs: []wire.ACL{
		{Identity: "lister", Key: []byte("listersecret"), Perms: wire.PermRange},
	}}))
	if resp.Status != wire.StatusOK {
		t.Fatalf("security: %v %s", resp.Status, resp.StatusMsg)
	}
	req := func(withValues bool) *wire.Message {
		m := &wire.Message{Type: wire.TGetKeyRange, User: "lister", StartKey: []byte("a"), EndKey: []byte("z"),
			KeyInclusive: true, WithValues: withValues}
		m.Sign([]byte("listersecret"))
		return m
	}
	if resp := d.Handle(req(false)); resp.Status != wire.StatusOK || len(resp.Keys) != 1 {
		t.Fatalf("keys-only range: %v, %d keys", resp.Status, len(resp.Keys))
	}
	rejected := d.Stats().Rejected.Load()
	resp = d.Handle(req(true))
	if resp.Status != wire.StatusNotAuthorized || len(resp.Values) != 0 {
		t.Fatalf("range with values without READ: %v, %d values", resp.Status, len(resp.Values))
	}
	if d.Stats().Rejected.Load() != rejected+1 {
		t.Error("rejection not counted")
	}
}

// TestDriveRangeValuesByteBudget: values larger than the response
// budget end the response early with Truncated set, and a single value
// over the budget still comes back alone so a scan makes progress.
func TestDriveRangeValuesByteBudget(t *testing.T) {
	d := NewDrive(Config{})
	big := bytes.Repeat([]byte("x"), rangeValueBudget/3+1)
	for i := 0; i < 5; i++ {
		d.Handle(signedReq(&wire.Message{Type: wire.TPut, Key: []byte(fmt.Sprintf("b%d", i)), Value: big, Force: true}))
	}
	resp := d.Handle(rangeValues("b0", "b9", 100))
	if resp.Status != wire.StatusOK || len(resp.Keys) != 2 || len(resp.Values) != 2 || !resp.Truncated {
		t.Fatalf("budgeted range: %v, %d keys, %d values, truncated %v",
			resp.Status, len(resp.Keys), len(resp.Values), resp.Truncated)
	}
	// The truncated response still fits one frame.
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, resp); err != nil {
		t.Fatalf("budgeted response does not frame: %v", err)
	}

	huge := bytes.Repeat([]byte("y"), rangeValueBudget+1)
	d.Handle(signedReq(&wire.Message{Type: wire.TPut, Key: []byte("h0"), Value: huge, Force: true}))
	d.Handle(signedReq(&wire.Message{Type: wire.TPut, Key: []byte("h1"), Value: []byte("small"), Force: true}))
	resp = d.Handle(rangeValues("h0", "h9", 100))
	if len(resp.Keys) != 1 || len(resp.Values[0]) != len(huge) || !resp.Truncated {
		t.Fatalf("over-budget value: %d keys, truncated %v", len(resp.Keys), resp.Truncated)
	}
}
