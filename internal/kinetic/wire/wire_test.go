package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	return &Message{
		Type:       TPut,
		Seq:        42,
		User:       "pesos-admin",
		Key:        []byte("m\x00greeting"),
		Value:      []byte("hello world"),
		DBVersion:  []byte{0, 0, 0, 1},
		NewVersion: []byte{0, 0, 0, 2},
		Force:      true,
		Sync:       SyncWriteBack,
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	msgs := []*Message{
		sampleMessage(),
		{Type: TGet, Seq: 1, User: "u", Key: []byte("k")},
		{Type: TGet, Seq: 2, User: "u", Key: []byte("k"), TraceID: 0xdeadbeefcafef00d},
		{Type: TGetResponse, Seq: 2, Value: []byte("v"), TraceID: 0xdeadbeefcafef00d, ServiceUs: 1250},
		{Type: TGetKeyRange, StartKey: []byte("a"), EndKey: []byte("z"),
			MaxReturned: 100, Reverse: true, KeyInclusive: true},
		{Type: TSecurity, ACLs: []ACL{
			{Identity: "admin", Key: []byte("secretsecret"), Perms: PermAll},
			{Identity: "reader", Key: []byte("readerkey123"), Perms: PermRead | PermRange},
		}, Pin: []byte("pin")},
		{Type: TGetLogResponse, Log: map[string]string{"keys": "10", "name": "d0"}},
		{Type: TPutResponse, Seq: 9, Status: StatusVersionMismatch, StatusMsg: "conflict"},
		{Type: TP2PPush, Key: []byte("k"), Peer: "kinetic-1"},
		{Type: TNoop},
		{Type: TBatch, Sync: SyncWriteBack, Batch: []BatchOp{
			{Op: BatchPut, Key: []byte("a"), Value: []byte("v"), NewVersion: []byte{1}, Force: true},
			{Op: BatchPut, Key: []byte("b"), Value: []byte("w"), DBVersion: []byte{1}, NewVersion: []byte{2}},
			{Op: BatchDelete, Key: []byte("c"), Force: true},
		}, GroupSizes: []uint32{2, 1}},
		{Type: TBatchResp, Seq: 7, GroupStatus: []BatchGroupStatus{
			{Status: StatusOK},
			{Status: StatusVersionMismatch, FailedIndex: 1, StatusMsg: "conflict"},
			{Status: StatusNotAuthorized, StatusMsg: "permission denied"},
		}},
	}
	for _, m := range msgs {
		data := m.Marshal()
		var got Message
		if err := got.Unmarshal(data); err != nil {
			t.Fatalf("unmarshal %v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(*m, got) {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", m.Type, got, *m)
		}
	}
}

func TestHMACSignVerify(t *testing.T) {
	key := []byte("0123456789abcdef")
	m := sampleMessage()
	m.Sign(key)
	if !m.Verify(key) {
		t.Fatal("verify failed for signed message")
	}
	if m.Verify([]byte("wrong key wrong key")) {
		t.Fatal("verify passed with wrong key")
	}

	// Any field mutation invalidates the HMAC.
	tampered := *m
	tampered.Value = []byte("evil")
	if tampered.Verify(key) {
		t.Fatal("verify passed after value tampering")
	}
	tampered = *m
	tampered.Seq++
	if tampered.Verify(key) {
		t.Fatal("verify passed after seq tampering")
	}
	tampered = *m
	tampered.User = "someone-else"
	if tampered.Verify(key) {
		t.Fatal("verify passed after user tampering")
	}
}

func TestHMACSurvivesTransport(t *testing.T) {
	key := []byte("0123456789abcdef")
	m := sampleMessage()
	m.Sign(key)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := ReadFrame(bufio.NewReader(&buf), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Verify(key) {
		t.Fatal("HMAC did not survive framing")
	}
}

func TestFrameRejectsBadMagic(t *testing.T) {
	var got Message
	err := ReadFrame(bufio.NewReader(bytes.NewReader([]byte{'X', 0, 0, 0, 1, 0})), &got)
	if err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	hdr := []byte{Magic, 0xFF, 0xFF, 0xFF, 0xFF}
	var got Message
	if err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr)), &got); err == nil {
		t.Fatal("oversized frame accepted")
	}
	m := &Message{Type: TPut, Value: make([]byte, MaxMessageSize+1)}
	if err := WriteFrame(&bytes.Buffer{}, m); err == nil {
		t.Fatal("oversized message written")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	data := sampleMessage().Marshal()
	for i := 1; i < len(data); i++ {
		var m Message
		// Truncations must error or at worst decode fewer fields;
		// they must never panic.
		_ = m.Unmarshal(data[:i])
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		garbage := make([]byte, rnd.Intn(200))
		rnd.Read(garbage)
		var m Message
		_ = m.Unmarshal(garbage) // must not panic
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seq uint64, user string, key, value, dbv, nv []byte, force bool) bool {
		m := &Message{Type: TPut, Seq: seq, User: user, Key: key, Value: value,
			DBVersion: dbv, NewVersion: nv, Force: force}
		var got Message
		if err := got.Unmarshal(m.Marshal()); err != nil {
			return false
		}
		// nil and empty slices are equivalent on the wire.
		norm := func(b []byte) []byte {
			if len(b) == 0 {
				return nil
			}
			return b
		}
		return got.Seq == m.Seq && got.User == m.User && got.Force == m.Force &&
			bytes.Equal(norm(got.Key), norm(m.Key)) &&
			bytes.Equal(norm(got.Value), norm(m.Value)) &&
			bytes.Equal(norm(got.DBVersion), norm(m.DBVersion)) &&
			bytes.Equal(norm(got.NewVersion), norm(m.NewVersion))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResponsePairing(t *testing.T) {
	reqs := []MessageType{TGet, TPut, TDelete, TGetKeyRange, TSecurity, TErase,
		TNoop, TFlush, TP2PPush, TGetLog, TGetVersion}
	for _, r := range reqs {
		if !r.IsRequest() {
			t.Errorf("%v should be a request", r)
		}
		resp := r.Response()
		if resp != r+1 {
			t.Errorf("%v response = %v, want %v", r, resp, r+1)
		}
		if resp.IsRequest() {
			t.Errorf("%v should not be a request", resp)
		}
	}
	if TGetResponse.Response() != TInvalid {
		t.Error("response of a response should be invalid")
	}
}

func TestStatusAndTypeStrings(t *testing.T) {
	for s := StatusOK; s <= StatusDeviceLocked; s++ {
		if s.String() == "" {
			t.Errorf("status %d has empty string", s)
		}
	}
	if StatusCode(200).String() == "" {
		t.Error("unknown status has empty string")
	}
	if TGet.String() != "GET" || MessageType(99).String() == "" {
		t.Error("type strings broken")
	}
}

func sampleBatch() *Message {
	return &Message{
		Type: TBatch,
		Seq:  7,
		User: "pesos-admin",
		Batch: []BatchOp{
			{Op: BatchPut, Key: []byte("o\x00k\x00v1"), Value: []byte("payload"),
				NewVersion: []byte{0, 0, 0, 1}, Force: true},
			{Op: BatchPut, Key: []byte("m\x00k"), Value: []byte("meta"),
				DBVersion: []byte{0, 0, 0, 0}, NewVersion: []byte{0, 0, 0, 1}},
			{Op: BatchDelete, Key: []byte("o\x00k\x00v0"), DBVersion: []byte{9}},
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	msgs := []*Message{
		sampleBatch(),
		{Type: TBatchResp, Seq: 7, Status: StatusVersionMismatch,
			StatusMsg: "conflict", BatchFailed: true, FailedIndex: 1},
		{Type: TBatchResp, Seq: 8, Status: StatusNotAuthorized,
			BatchFailed: true, FailedIndex: 0}, // index 0 must survive
	}
	for _, m := range msgs {
		var got Message
		if err := got.Unmarshal(m.Marshal()); err != nil {
			t.Fatalf("unmarshal %v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(*m, got) {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", m.Type, got, *m)
		}
	}
}

func TestBatchHMACCoversSubOps(t *testing.T) {
	key := []byte("0123456789abcdef")
	m := sampleBatch()
	m.Sign(key)
	if !m.Verify(key) {
		t.Fatal("verify failed for signed batch")
	}
	// Tampering with any sub-operation invalidates the HMAC.
	tampered := *m
	tampered.Batch = append([]BatchOp(nil), m.Batch...)
	tampered.Batch[1].Value = []byte("evil meta")
	if tampered.Verify(key) {
		t.Fatal("verify passed after sub-op tampering")
	}
	tampered = *m
	tampered.Batch = m.Batch[:2] // dropping a sub-op must be detected
	if tampered.Verify(key) {
		t.Fatal("verify passed after sub-op removal")
	}
	tampered = *m
	tampered.Batch = append([]BatchOp(nil), m.Batch...)
	tampered.Batch[0], tampered.Batch[1] = tampered.Batch[1], tampered.Batch[0]
	if tampered.Verify(key) {
		t.Fatal("verify passed after sub-op reordering")
	}
}

func TestBatchResponsePairing(t *testing.T) {
	if !TBatch.IsRequest() {
		t.Error("TBatch should be a request")
	}
	if TBatch.Response() != TBatchResp {
		t.Errorf("TBatch response = %v, want %v", TBatch.Response(), TBatchResp)
	}
	if TBatchResp.IsRequest() {
		t.Error("TBatchResp should not be a request")
	}
	if TBatch.String() != "BATCH" || TBatchResp.String() != "BATCH_RESPONSE" {
		t.Error("batch type strings broken")
	}
}

// TestEncoderMatchesSignWriteFrame: the pooled encoder must emit
// byte-identical frames to the Sign+WriteFrame pair, across repeated
// messages, buffer reuse and credential key switches.
func TestEncoderMatchesSignWriteFrame(t *testing.T) {
	enc := NewEncoder()
	keys := [][]byte{[]byte("key-one-secret"), []byte("key-two-secret"), []byte("key-one-secret")}
	for i, key := range keys {
		m := &Message{
			Type: TPut, Seq: uint64(100 + i), User: "u",
			Key: []byte("object/key"), Value: bytes.Repeat([]byte{byte(i)}, 300+i*17),
			NewVersion: []byte{0, 0, 0, 0, 0, 0, 0, byte(i)},
		}
		var legacy bytes.Buffer
		ref := *m
		ref.Sign(key)
		if err := WriteFrame(&legacy, &ref); err != nil {
			t.Fatal(err)
		}
		var pooled bytes.Buffer
		if err := enc.WriteFrame(&pooled, m, key); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacy.Bytes(), pooled.Bytes()) {
			t.Fatalf("message %d: encoder frame differs from Sign+WriteFrame", i)
		}
		// The receiver verifies the pooled frame like any other.
		var got Message
		if err := ReadFrame(bufio.NewReader(&pooled), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Verify(key) {
			t.Fatalf("message %d: pooled frame fails HMAC verification", i)
		}
		if got.Verify([]byte("wrong-key")) {
			t.Fatalf("message %d: pooled frame verifies under wrong key", i)
		}
	}
}

// TestFramesMatchGolden pins the frame bytes: every writer — the
// pooled Encoder, Sign+WriteFrame, and the header plus Marshal — emits
// exactly the frames the earlier single-buffer encoder did, for a
// signed message with a value, one without, a batch, and an unsigned
// response.
func TestFramesMatchGolden(t *testing.T) {
	key := []byte("0123456789abcdef")
	cases := []struct {
		m      *Message
		signed bool
		golden string
	}{
		{sampleMessage(), true, "4b000000670101040208000000000000002a030b7065736f732d61646d696e060a6d006772656574696e67070b68656c6c6f20776f726c640804000000010904000000020a01010b01011620f4de52c97cb90ce12bc20e519f9ae82ff43920259e49353f483a259e7dcf793c"},
		{&Message{Type: TGet, Seq: 3, User: "u", Key: []byte("k"), TraceID: 0xdeadbeefcafef00d}, true,
			"4b0000003f0101020208000000000000000303017506016b1b08deadbeefcafef00d16204cf90450c87b3ba9ffea2063c04415046a537d8a15080793695b32cfd7ed9c4f"},
		{sampleBatch(), true, "4b0000008701011802080000000000000007030b7065736f732d61646d696e171d01010002066f006b00763103077061796c6f6164050400000001060101171a01010002036d006b03046d657461040400000000050400000001170e01010102066f006b0076300401091620d615f627908dcc49f06eb6390ccab24100c8e41f1598c65bb2be9e68a8ccedf7"},
		{&Message{Type: TGetResponse, Seq: 2, Key: []byte("k"), Value: []byte("v"), DBVersion: []byte{0, 1}, TraceID: 7, ServiceUs: 1250}, false,
			"4b000000270101030208000000000000000206016b070176080200011b0800000000000000071c04000004e2"},
	}
	for _, c := range cases {
		golden, err := hex.DecodeString(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		var frames [][]byte
		if c.signed {
			var pooled bytes.Buffer
			if err := NewEncoder().WriteFrame(&pooled, c.m, key); err != nil {
				t.Fatal(err)
			}
			frames = append(frames, pooled.Bytes())
			c.m.Sign(key)
		}
		var plain bytes.Buffer
		if err := WriteFrame(&plain, c.m); err != nil {
			t.Fatal(err)
		}
		body := c.m.Marshal()
		frames = append(frames, plain.Bytes(), append([]byte{Magic, 0, 0, 0, byte(len(body))}, body...))
		for i, f := range frames {
			if !bytes.Equal(f, golden) {
				t.Errorf("%v writer %d:\n got %x\nwant %x", c.m.Type, i, f, golden)
			}
		}
	}
}

// TestVerifyRejectsTamperedFrames: the HMAC covers the received body,
// the value included, and must be the frame's last field. A flipped
// value byte, any field after the HMAC (a second HMAC included) and
// every truncation either fail to decode or fail verification.
func TestVerifyRejectsTamperedFrames(t *testing.T) {
	key := []byte("0123456789abcdef")
	var frame bytes.Buffer
	if err := NewEncoder().WriteFrame(&frame, sampleMessage(), key); err != nil {
		t.Fatal(err)
	}
	body := frame.Bytes()[5:]
	verifies := func(body []byte) bool {
		var m Message
		return m.Unmarshal(append([]byte(nil), body...)) == nil && m.Verify(key)
	}
	if !verifies(body) {
		t.Fatal("untampered frame fails verification")
	}
	hmacField := body[len(body)-fieldSize(32):]

	flipped := append([]byte(nil), body...)
	flipped[bytes.Index(body, []byte("hello world"))+4] ^= 0x01
	tampered := map[string][]byte{
		"flipped value byte":  flipped,
		"field after HMAC":    appendField(append([]byte(nil), body...), fTraceID, []byte{0, 0, 0, 0, 0, 0, 0, 9}),
		"unknown field after": appendField(append([]byte(nil), body...), 0xee, []byte("x")),
		"duplicate HMAC":      append(append([]byte(nil), body...), hmacField...),
	}
	for name, b := range tampered {
		if verifies(b) {
			t.Errorf("%s: tampered frame verifies", name)
		}
	}
	for i := 0; i < len(body); i++ {
		if verifies(body[:i]) {
			t.Fatalf("frame truncated to %d of %d bytes verifies", i, len(body))
		}
	}
}

// TestMessageOwnsItsFrame: byte fields alias the frame they were read
// from, so reading the next frame from the same reader must leave an
// earlier message's fields untouched.
func TestMessageOwnsItsFrame(t *testing.T) {
	var buf bytes.Buffer
	for _, v := range []string{"first value", "SECOND VALUE"} {
		m := &Message{Type: TPut, Seq: 1, Key: []byte("k"), Value: []byte(v)}
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	var first, second Message
	if err := ReadFrame(r, &first); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrame(r, &second); err != nil {
		t.Fatal(err)
	}
	if string(first.Value) != "first value" || string(second.Value) != "SECOND VALUE" {
		t.Fatalf("values %q, %q after reading both frames", first.Value, second.Value)
	}
	// An append to an aliased field reallocates instead of writing over
	// the fields that follow it in the frame (here the value's tag,
	// length and first bytes).
	_ = append(first.Key, "XXXXXXXX"...)
	if string(first.Value) != "first value" {
		t.Fatalf("append to Key overwrote Value: %q", first.Value)
	}
}

// TestEncoderRejectsOversize keeps the frame-size guard.
func TestEncoderRejectsOversize(t *testing.T) {
	enc := NewEncoder()
	m := &Message{Type: TPut, Key: []byte("k"), Value: make([]byte, MaxMessageSize)}
	if err := enc.WriteFrame(&bytes.Buffer{}, m, []byte("secret")); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// BenchmarkSignWriteFrameLegacy measures the seed's per-message path:
// fresh HMAC state plus a double body marshal per message.
func BenchmarkSignWriteFrameLegacy(b *testing.B) {
	key := []byte("bench-secret-key")
	m := &Message{Type: TPut, Seq: 1, User: "u", Key: []byte("object/key"),
		Value: make([]byte, 1024), NewVersion: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Seq = uint64(i)
		m.Sign(key)
		if err := WriteFrame(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignWriteFramePooled measures the Encoder path the client
// uses: one marshal, reused HMAC state and buffers.
func BenchmarkSignWriteFramePooled(b *testing.B) {
	key := []byte("bench-secret-key")
	enc := NewEncoder()
	m := &Message{Type: TPut, Seq: 1, User: "u", Key: []byte("object/key"),
		Value: make([]byte, 1024), NewVersion: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Seq = uint64(i)
		if err := enc.WriteFrame(io.Discard, m, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRoundTrip1MiB measures one 1 MiB PUT through the whole
// wire path: sign and frame it, read the frame back and verify its
// HMAC. The buffer write stands in for the transport's one copy.
func BenchmarkWireRoundTrip1MiB(b *testing.B) {
	key := []byte("bench-secret-key")
	enc := NewEncoder()
	m := &Message{Type: TPut, Seq: 1, User: "u", Key: []byte("object/key"),
		Value: make([]byte, 1<<20), NewVersion: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	var buf bytes.Buffer
	r := bufio.NewReaderSize(&buf, 64<<10)
	b.SetBytes(int64(len(m.Value)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.WriteFrame(&buf, m, key); err != nil {
			b.Fatal(err)
		}
		r.Reset(&buf)
		var got Message
		if err := ReadFrame(r, &got); err != nil {
			b.Fatal(err)
		}
		if !got.Verify(key) {
			b.Fatal("round-tripped frame fails verification")
		}
	}
}

// TestRangeValuesRoundTrip: a range read's values request, its values
// (an empty value included) and its truncation flag survive the
// encoding, and the HMAC covers the values.
func TestRangeValuesRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Type: TGetKeyRange, Seq: 3, User: "u", StartKey: []byte("a"), EndKey: []byte("z"),
			MaxReturned: 51, KeyInclusive: true, WithValues: true},
		{Type: TGetKeyRangeResp, Seq: 3, Keys: [][]byte{[]byte("a"), []byte("b"), []byte("c")},
			Values: [][]byte{[]byte("va"), nil, []byte("vc")}, Truncated: true},
	}
	for _, m := range msgs {
		var got Message
		if err := got.Unmarshal(m.Marshal()); err != nil {
			t.Fatalf("unmarshal %v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(*m, got) {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", m.Type, got, *m)
		}
	}

	resp := msgs[1]
	resp.Sign([]byte("key"))
	var got Message
	if err := got.Unmarshal(resp.Marshal()); err != nil {
		t.Fatal(err)
	}
	got.Values[0][0] ^= 0xff
	if got.Verify([]byte("key")) {
		t.Error("HMAC verified over a tampered range value")
	}
}

func TestMessageTypeStringAllocsNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = TGetKeyRange.String() }); n != 0 {
		t.Errorf("MessageType.String allocates %v times per call, want 0", n)
	}
	for typ := TGet; typ <= TBatchResp; typ++ {
		if typ.String() == "" || strings.HasPrefix(typ.String(), "MessageType(") {
			t.Errorf("type %d has no name", uint8(typ))
		}
	}
	if TInvalid.String() != "MessageType(0)" || MessageType(255).String() != "MessageType(255)" {
		t.Errorf("unnamed types render as %q and %q", TInvalid.String(), MessageType(255).String())
	}
}
