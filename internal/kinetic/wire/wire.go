// Package wire implements the Kinetic drive wire protocol used between
// the Pesos controller and Ethernet-attached drives.
//
// The real Kinetic protocol is Google Protocol Buffers over a 9-byte
// frame. This implementation keeps the same architecture — a framed,
// field-tagged binary message with a per-user HMAC covering the
// command — but uses a self-contained encoding so the module needs no
// third-party code. Each frame is:
//
//	magic byte 'K' | uint32 big-endian length | message bytes
//
// and each message is a sequence of tag-length-value fields. Every
// request carries the issuing user identity and an HMAC-SHA256 over
// the canonical field serialization keyed with that user's secret;
// drives reject messages whose HMAC does not verify (§2.2 of the
// paper: mutually authenticated channel terminating in the drive).
package wire

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
)

// MaxMessageSize bounds a single frame (1 MB object + headroom),
// mirroring the Kinetic limit of 1 MB values.
const MaxMessageSize = 2 << 20

// Magic is the frame marker byte.
const Magic = 'K'

// MessageType enumerates request and response kinds.
type MessageType uint8

// Message types. Requests are even, the matching response is request+1.
const (
	TInvalid          MessageType = 0
	TGet              MessageType = 2
	TGetResponse      MessageType = 3
	TPut              MessageType = 4
	TPutResponse      MessageType = 5
	TDelete           MessageType = 6
	TDeleteResponse   MessageType = 7
	TGetKeyRange      MessageType = 8
	TGetKeyRangeResp  MessageType = 9
	TSecurity         MessageType = 10
	TSecurityResponse MessageType = 11
	TErase            MessageType = 12
	TEraseResponse    MessageType = 13
	TNoop             MessageType = 14
	TNoopResponse     MessageType = 15
	TFlush            MessageType = 16
	TFlushResponse    MessageType = 17
	TP2PPush          MessageType = 18
	TP2PPushResponse  MessageType = 19
	TGetLog           MessageType = 20
	TGetLogResponse   MessageType = 21
	TGetVersion       MessageType = 22
	TGetVersionResp   MessageType = 23
	TBatch            MessageType = 24
	TBatchResp        MessageType = 25
)

// Response reports the response type paired with a request type, or
// TInvalid for non-requests.
func (t MessageType) Response() MessageType {
	if t >= TGet && t%2 == 0 {
		return t + 1
	}
	return TInvalid
}

// IsRequest reports whether t is a request type.
func (t MessageType) IsRequest() bool { return t >= TGet && t%2 == 0 }

// messageTypeNames names every message type, indexed by type.
var messageTypeNames = [...]string{
	TGet: "GET", TGetResponse: "GET_RESPONSE",
	TPut: "PUT", TPutResponse: "PUT_RESPONSE",
	TDelete: "DELETE", TDeleteResponse: "DELETE_RESPONSE",
	TGetKeyRange: "GETKEYRANGE", TGetKeyRangeResp: "GETKEYRANGE_RESPONSE",
	TSecurity: "SECURITY", TSecurityResponse: "SECURITY_RESPONSE",
	TErase: "ERASE", TEraseResponse: "ERASE_RESPONSE",
	TNoop: "NOOP", TNoopResponse: "NOOP_RESPONSE",
	TFlush: "FLUSH", TFlushResponse: "FLUSH_RESPONSE",
	TP2PPush: "P2PPUSH", TP2PPushResponse: "P2PPUSH_RESPONSE",
	TGetLog: "GETLOG", TGetLogResponse: "GETLOG_RESPONSE",
	TGetVersion: "GETVERSION", TGetVersionResp: "GETVERSION_RESPONSE",
	TBatch: "BATCH", TBatchResp: "BATCH_RESPONSE",
}

// String implements fmt.Stringer for diagnostics.
func (t MessageType) String() string {
	if int(t) < len(messageTypeNames) && messageTypeNames[t] != "" {
		return messageTypeNames[t]
	}
	return fmt.Sprintf("MessageType(%d)", uint8(t))
}

// StatusCode is the drive's verdict on a request.
type StatusCode uint8

// Status codes, mirroring the Kinetic protocol's status space.
const (
	StatusOK StatusCode = iota
	StatusNotFound
	StatusVersionMismatch
	StatusNotAuthorized
	StatusHMACFailure
	StatusInternalError
	StatusNotAttempted
	StatusInvalidRequest
	StatusNoSuchUser
	StatusDeviceLocked
)

// String implements fmt.Stringer.
func (s StatusCode) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusVersionMismatch:
		return "VERSION_MISMATCH"
	case StatusNotAuthorized:
		return "NOT_AUTHORIZED"
	case StatusHMACFailure:
		return "HMAC_FAILURE"
	case StatusInternalError:
		return "INTERNAL_ERROR"
	case StatusNotAttempted:
		return "NOT_ATTEMPTED"
	case StatusInvalidRequest:
		return "INVALID_REQUEST"
	case StatusNoSuchUser:
		return "NO_SUCH_USER"
	case StatusDeviceLocked:
		return "DEVICE_LOCKED"
	default:
		return fmt.Sprintf("StatusCode(%d)", uint8(s))
	}
}

// Permission bits grant drive operations to a user account.
type Permission uint16

// Account permissions.
const (
	PermRead Permission = 1 << iota
	PermWrite
	PermDelete
	PermRange
	PermSecurity
	PermP2P
	PermGetLog
	PermAll Permission = PermRead | PermWrite | PermDelete | PermRange | PermSecurity | PermP2P | PermGetLog
)

// ACL describes one user account installed on a drive.
type ACL struct {
	Identity string     // user name, e.g. "pesos-admin"
	Key      []byte     // HMAC-SHA256 secret
	Perms    Permission // granted operations
}

// BatchOpKind selects the operation of one batch sub-operation.
type BatchOpKind uint8

// Batch sub-operation kinds.
const (
	BatchPut BatchOpKind = iota
	BatchDelete
)

// String implements fmt.Stringer.
func (k BatchOpKind) String() string {
	switch k {
	case BatchPut:
		return "PUT"
	case BatchDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("BatchOpKind(%d)", uint8(k))
	}
}

// MaxBatchOps caps the sub-operations of one TBatch message, mirroring
// the real Kinetic protocol's START_BATCH/END_BATCH operation limit.
const MaxBatchOps = 64

// BatchGroupStatus is the drive's verdict on one sub-operation group
// of a grouped TBatch (see Message.GroupSizes): the group either
// committed (StatusOK) or was skipped without affecting its
// neighbours, with FailedIndex identifying the failing sub-operation
// relative to the group's first op.
type BatchGroupStatus struct {
	Status      StatusCode
	FailedIndex uint32 // within-group index of the failing sub-op
	StatusMsg   string
}

// BatchOp is one sub-operation of a TBatch request. The drive applies
// the whole sequence atomically: every sub-operation is validated
// (permissions and compare-and-swap versions) before any takes effect.
type BatchOp struct {
	Op         BatchOpKind
	Key        []byte
	Value      []byte // puts only
	DBVersion  []byte // stored version for compare-and-swap
	NewVersion []byte // version to install on put
	Force      bool   // ignore version check
}

// SyncMode selects Kinetic write durability semantics.
type SyncMode uint8

// Sync modes: WriteThrough persists before the response (the paper's
// write-through semantic, §3.2); WriteBack may buffer; Flush forces
// all buffered writes out.
const (
	SyncWriteThrough SyncMode = iota
	SyncWriteBack
	SyncFlush
)

// Message is a single Kinetic protocol message: a request or response.
// Zero-valued fields are omitted from the encoding.
type Message struct {
	Type      MessageType
	Seq       uint64 // request sequence, echoed in the response
	User      string // issuing account
	Status    StatusCode
	StatusMsg string

	Key        []byte
	Value      []byte
	DBVersion  []byte // stored version for compare-and-swap
	NewVersion []byte // version to install on put
	Force      bool   // ignore version check
	Sync       SyncMode

	StartKey     []byte
	EndKey       []byte
	MaxReturned  uint32
	Reverse      bool
	Keys         [][]byte // range response payload
	KeyInclusive bool     // StartKey inclusive flag for ranges
	// WithValues asks a range read to return each key's stored value
	// too (requests); Values carries them, one entry per key in Keys
	// order, and Truncated marks a response the drive's byte budget
	// cut short of MaxReturned (responses).
	WithValues bool
	Values     [][]byte
	Truncated  bool

	ACLs []ACL  // security request payload
	Pin  []byte // erase PIN

	Peer string // P2P push target "host:port"

	Log map[string]string // GETLOG response payload (device stats)

	// Batch carries the sub-operations of a TBatch request.
	Batch []BatchOp
	// BatchFailed marks a TBatchResp whose FailedIndex identifies the
	// sub-operation that caused the (atomic) rejection.
	BatchFailed bool
	FailedIndex uint32

	// GroupSizes partitions Batch into consecutive sub-operation
	// groups (the lengths must sum to len(Batch)). A grouped TBatch is
	// the group-commit carrier: the drive validates and applies each
	// group independently — a group failing its compare-and-swap is
	// skipped without aborting its neighbours — under one amortized
	// media wait. Empty GroupSizes keeps the classic all-or-nothing
	// semantics.
	GroupSizes []uint32
	// GroupStatus carries the per-group verdicts of a grouped
	// TBatchResp, one entry per request group, in order.
	GroupStatus []BatchGroupStatus

	// TraceID propagates the end-to-end trace context onto the drive
	// link (requests; echoed in responses so a frame capture pairs up).
	TraceID uint64
	// ServiceUs reports the drive's internal service time for the
	// request in microseconds (responses only), letting the controller
	// split drive latency into network and media wait without a clock
	// shared with the drive.
	ServiceUs uint32

	HMAC []byte // authentication tag, set by Sign

	// fieldAfterHMAC marks a decoded message in which a field, a second
	// HMAC included, followed the HMAC field. The tag must close the
	// message, so Verify rejects such a message.
	fieldAfterHMAC bool
}

// Field tags for the TLV encoding.
const (
	fType uint8 = iota + 1
	fSeq
	fUser
	fStatus
	fStatusMsg
	fKey
	fValue
	fDBVersion
	fNewVersion
	fForce
	fSync
	fStartKey
	fEndKey
	fMaxReturned
	fReverse
	fKeysEntry
	fKeyInclusive
	fACLEntry
	fPin
	fPeer
	fLogEntry
	fHMAC
	// New tags append after fHMAC so existing encodings stay stable.
	fBatchEntry
	fFailedIndex
	fGroupSize
	fGroupStatus
	fTraceID
	fServiceUs
	fWithValues
	fValuesEntry
	fTruncated
)

// Marshal encodes m, including its HMAC field if present.
func (m *Message) Marshal() []byte {
	buf := m.appendHead(nil)
	buf = append(buf, m.Value...)
	buf = m.appendTail(buf)
	if len(m.HMAC) > 0 {
		buf = appendField(buf, fHMAC, m.HMAC)
	}
	return buf
}

// encodeParts encodes every field except the value and the HMAC into
// buf, split around the value: the message body, which the HMAC
// covers, is buf[:n] | m.Value | buf[n:]. Framing and signing stream
// the three parts in turn, so the value is never copied into an encode
// buffer.
func (m *Message) encodeParts(buf []byte) (_ []byte, n int) {
	buf = m.appendHead(buf)
	n = len(buf)
	return m.appendTail(buf), n
}

// appendHead appends the fields that precede the value, ending with
// the value's tag and length when m carries a value.
func (m *Message) appendHead(buf []byte) []byte {
	buf = appendField(buf, fType, []byte{byte(m.Type)})
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], m.Seq)
	buf = appendField(buf, fSeq, seq[:])
	if m.User != "" {
		buf = appendField(buf, fUser, []byte(m.User))
	}
	if m.Status != StatusOK {
		buf = appendField(buf, fStatus, []byte{byte(m.Status)})
	}
	if m.StatusMsg != "" {
		buf = appendField(buf, fStatusMsg, []byte(m.StatusMsg))
	}
	if len(m.Key) > 0 {
		buf = appendField(buf, fKey, m.Key)
	}
	if len(m.Value) > 0 {
		buf = append(buf, fValue)
		buf = binary.AppendUvarint(buf, uint64(len(m.Value)))
	}
	return buf
}

// appendTail appends the fields that follow the value, except the
// HMAC.
func (m *Message) appendTail(buf []byte) []byte {
	if len(m.DBVersion) > 0 {
		buf = appendField(buf, fDBVersion, m.DBVersion)
	}
	if len(m.NewVersion) > 0 {
		buf = appendField(buf, fNewVersion, m.NewVersion)
	}
	if m.Force {
		buf = appendField(buf, fForce, []byte{1})
	}
	if m.Sync != SyncWriteThrough {
		buf = appendField(buf, fSync, []byte{byte(m.Sync)})
	}
	if len(m.StartKey) > 0 {
		buf = appendField(buf, fStartKey, m.StartKey)
	}
	if len(m.EndKey) > 0 {
		buf = appendField(buf, fEndKey, m.EndKey)
	}
	if m.MaxReturned != 0 {
		var mr [4]byte
		binary.BigEndian.PutUint32(mr[:], m.MaxReturned)
		buf = appendField(buf, fMaxReturned, mr[:])
	}
	if m.Reverse {
		buf = appendField(buf, fReverse, []byte{1})
	}
	if m.KeyInclusive {
		buf = appendField(buf, fKeyInclusive, []byte{1})
	}
	for _, k := range m.Keys {
		buf = appendField(buf, fKeysEntry, k)
	}
	for _, a := range m.ACLs {
		buf = appendField(buf, fACLEntry, marshalACL(a))
	}
	if len(m.Pin) > 0 {
		buf = appendField(buf, fPin, m.Pin)
	}
	if m.Peer != "" {
		buf = appendField(buf, fPeer, []byte(m.Peer))
	}
	for k, v := range m.Log {
		entry := appendField(nil, 1, []byte(k))
		entry = appendField(entry, 2, []byte(v))
		buf = appendField(buf, fLogEntry, entry)
	}
	for _, op := range m.Batch {
		// Encoded in place: the nested entry's size is computed up
		// front so the hot batch path never allocates per sub-op
		// scratch (the whole message rides the caller's one buffer).
		buf = append(buf, fBatchEntry)
		buf = binary.AppendUvarint(buf, uint64(batchOpSize(op)))
		buf = appendBatchOpBody(buf, op)
	}
	if m.BatchFailed {
		var fi [4]byte
		binary.BigEndian.PutUint32(fi[:], m.FailedIndex)
		buf = appendField(buf, fFailedIndex, fi[:])
	}
	for _, n := range m.GroupSizes {
		var gs [4]byte
		binary.BigEndian.PutUint32(gs[:], n)
		buf = appendField(buf, fGroupSize, gs[:])
	}
	for _, g := range m.GroupStatus {
		buf = append(buf, fGroupStatus)
		buf = binary.AppendUvarint(buf, uint64(groupStatusSize(g)))
		buf = appendGroupStatusBody(buf, g)
	}
	if m.TraceID != 0 {
		var tid [8]byte
		binary.BigEndian.PutUint64(tid[:], m.TraceID)
		buf = appendField(buf, fTraceID, tid[:])
	}
	if m.ServiceUs != 0 {
		var su [4]byte
		binary.BigEndian.PutUint32(su[:], m.ServiceUs)
		buf = appendField(buf, fServiceUs, su[:])
	}
	if m.WithValues {
		buf = appendField(buf, fWithValues, []byte{1})
	}
	for _, v := range m.Values {
		buf = appendField(buf, fValuesEntry, v)
	}
	if m.Truncated {
		buf = appendField(buf, fTruncated, []byte{1})
	}
	return buf
}

// Unmarshal decodes data into m, replacing all fields. Byte fields
// alias data instead of copying it: m owns data from here on, and the
// caller must not reuse it while m or any slice taken from m is live.
func (m *Message) Unmarshal(data []byte) error {
	*m = Message{}
	sawHMAC := false
	for len(data) > 0 {
		tag, val, rest, err := readField(data)
		if err != nil {
			return err
		}
		data = rest
		if sawHMAC {
			m.fieldAfterHMAC = true
		}
		switch tag {
		case fType:
			if len(val) != 1 {
				return errors.New("wire: bad type field")
			}
			m.Type = MessageType(val[0])
		case fSeq:
			if len(val) != 8 {
				return errors.New("wire: bad seq field")
			}
			m.Seq = binary.BigEndian.Uint64(val)
		case fUser:
			m.User = string(val)
		case fStatus:
			if len(val) != 1 {
				return errors.New("wire: bad status field")
			}
			m.Status = StatusCode(val[0])
		case fStatusMsg:
			m.StatusMsg = string(val)
		case fKey:
			m.Key = alias(val)
		case fValue:
			m.Value = alias(val)
		case fDBVersion:
			m.DBVersion = alias(val)
		case fNewVersion:
			m.NewVersion = alias(val)
		case fForce:
			m.Force = len(val) == 1 && val[0] == 1
		case fSync:
			if len(val) != 1 {
				return errors.New("wire: bad sync field")
			}
			m.Sync = SyncMode(val[0])
		case fStartKey:
			m.StartKey = alias(val)
		case fEndKey:
			m.EndKey = alias(val)
		case fMaxReturned:
			if len(val) != 4 {
				return errors.New("wire: bad maxReturned field")
			}
			m.MaxReturned = binary.BigEndian.Uint32(val)
		case fReverse:
			m.Reverse = len(val) == 1 && val[0] == 1
		case fKeyInclusive:
			m.KeyInclusive = len(val) == 1 && val[0] == 1
		case fKeysEntry:
			m.Keys = append(m.Keys, alias(val))
		case fACLEntry:
			acl, err := unmarshalACL(val)
			if err != nil {
				return err
			}
			m.ACLs = append(m.ACLs, acl)
		case fPin:
			m.Pin = alias(val)
		case fPeer:
			m.Peer = string(val)
		case fLogEntry:
			if m.Log == nil {
				m.Log = make(map[string]string)
			}
			k, v, err := unmarshalLogEntry(val)
			if err != nil {
				return err
			}
			m.Log[k] = v
		case fBatchEntry:
			op, err := unmarshalBatchOp(val)
			if err != nil {
				return err
			}
			m.Batch = append(m.Batch, op)
		case fFailedIndex:
			if len(val) != 4 {
				return errors.New("wire: bad failedIndex field")
			}
			m.BatchFailed = true
			m.FailedIndex = binary.BigEndian.Uint32(val)
		case fGroupSize:
			if len(val) != 4 {
				return errors.New("wire: bad groupSize field")
			}
			m.GroupSizes = append(m.GroupSizes, binary.BigEndian.Uint32(val))
		case fGroupStatus:
			g, err := unmarshalGroupStatus(val)
			if err != nil {
				return err
			}
			m.GroupStatus = append(m.GroupStatus, g)
		case fTraceID:
			if len(val) != 8 {
				return errors.New("wire: bad traceID field")
			}
			m.TraceID = binary.BigEndian.Uint64(val)
		case fServiceUs:
			if len(val) != 4 {
				return errors.New("wire: bad serviceUs field")
			}
			m.ServiceUs = binary.BigEndian.Uint32(val)
		case fWithValues:
			m.WithValues = len(val) == 1 && val[0] == 1
		case fValuesEntry:
			m.Values = append(m.Values, alias(val))
		case fTruncated:
			m.Truncated = len(val) == 1 && val[0] == 1
		case fHMAC:
			sawHMAC = true
			m.HMAC = alias(val)
		default:
			// Unknown fields are skipped for forward compatibility.
		}
	}
	return nil
}

// Sign computes and installs the HMAC over the message body using key.
func (m *Message) Sign(key []byte) { m.HMAC = m.mac(key) }

// Verify reports whether the message HMAC is valid under key. The tag
// must be the last field of the message it was decoded from.
func (m *Message) Verify(key []byte) bool {
	return !m.fieldAfterHMAC && hmac.Equal(m.mac(key), m.HMAC)
}

// mac computes the HMAC of the message body under key.
func (m *Message) mac(key []byte) []byte {
	buf, n := m.encodeParts(nil)
	return bodyMAC(hmac.New(sha256.New, key), buf[:n], m.Value, buf[n:], nil)
}

// bodyMAC feeds mac the body as head | value | tail and appends the tag
// to out. The value is hashed where it lies: in the caller's slice when
// sending, in the received frame when verifying.
func bodyMAC(mac hash.Hash, head, value, tail, out []byte) []byte {
	mac.Write(head)
	mac.Write(value)
	mac.Write(tail)
	return mac.Sum(out)
}

// Encoder signs and frames messages for one connection, reusing the
// HMAC state, the encode buffer and the tag buffer across messages,
// and re-keying only when the credential key actually changes. Its
// frames are byte-identical to Sign followed by WriteFrame.
//
// An Encoder is not safe for concurrent use; callers serialize on
// their connection write lock, which is exactly the scope the reused
// buffers need.
type Encoder struct {
	key []byte
	mac hash.Hash
	buf []byte
	sum []byte
}

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// WriteFrame signs m under key and writes the framed message to w,
// equivalent to m.Sign(key) followed by WriteFrame(w, m) but without
// per-message allocations. m.HMAC is left untouched.
func (e *Encoder) WriteFrame(w io.Writer, m *Message, key []byte) error {
	if e.mac == nil || !bytes.Equal(e.key, key) {
		e.key = append(e.key[:0], key...)
		e.mac = hmac.New(sha256.New, key)
	} else {
		e.mac.Reset()
	}
	buf, n := m.encodeParts(e.buf[:0])
	e.sum = bodyMAC(e.mac, buf[:n], m.Value, buf[n:], e.sum[:0])
	buf = appendField(buf, fHMAC, e.sum)
	e.buf = buf[:0] // keep the grown capacity for the next message
	return writeFrame(w, buf[:n], m.Value, buf[n:])
}

// WriteFrame writes the framed message to w.
func WriteFrame(w io.Writer, m *Message) error {
	buf, n := m.encodeParts(nil)
	if len(m.HMAC) > 0 {
		buf = appendField(buf, fHMAC, m.HMAC)
	}
	return writeFrame(w, buf[:n], m.Value, buf[n:])
}

// writeFrame writes the frame header, then the body as head | value |
// tail, where tail ends with the HMAC field of a signed message.
func writeFrame(w io.Writer, head, value, tail []byte) error {
	n := len(head) + len(value) + len(tail)
	if n > MaxMessageSize {
		return fmt.Errorf("wire: message too large: %d bytes", n)
	}
	var hdr [5]byte
	hdr[0] = Magic
	binary.BigEndian.PutUint32(hdr[1:], uint32(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(value); err != nil {
		return err
	}
	_, err := w.Write(tail)
	return err
}

// ReadFrame reads one framed message from r into a freshly allocated
// frame, which m owns: m's byte fields alias it (see Unmarshal), so a
// frame is never reused for the next message.
func ReadFrame(r *bufio.Reader, m *Message) error {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	if hdr[0] != Magic {
		return fmt.Errorf("wire: bad magic byte 0x%02x", hdr[0])
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxMessageSize {
		return fmt.Errorf("wire: frame too large: %d bytes", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return m.Unmarshal(body)
}

func marshalACL(a ACL) []byte {
	buf := appendField(nil, 1, []byte(a.Identity))
	buf = appendField(buf, 2, a.Key)
	var p [2]byte
	binary.BigEndian.PutUint16(p[:], uint16(a.Perms))
	buf = appendField(buf, 3, p[:])
	return buf
}

func unmarshalACL(data []byte) (ACL, error) {
	var a ACL
	for len(data) > 0 {
		tag, val, rest, err := readField(data)
		if err != nil {
			return a, err
		}
		data = rest
		switch tag {
		case 1:
			a.Identity = string(val)
		case 2:
			a.Key = alias(val)
		case 3:
			if len(val) != 2 {
				return a, errors.New("wire: bad ACL perms")
			}
			a.Perms = Permission(binary.BigEndian.Uint16(val))
		}
	}
	return a, nil
}

// Batch sub-operation field tags (nested TLV inside fBatchEntry).
const (
	bOp uint8 = iota + 1
	bKey
	bValue
	bDBVersion
	bNewVersion
	bForce
)

// fieldSize is the encoded length of one TLV field with an n-byte
// value.
func fieldSize(n int) int {
	return 1 + uvarintLen(uint64(n)) + n
}

// uvarintLen is the byte length of n's uvarint encoding.
func uvarintLen(n uint64) int {
	l := 1
	for n >= 0x80 {
		n >>= 7
		l++
	}
	return l
}

// batchOpSize is the exact encoded size of one batch sub-operation,
// so the hot path can length-prefix and encode it in place.
func batchOpSize(op BatchOp) int {
	n := fieldSize(1) + fieldSize(len(op.Key))
	if len(op.Value) > 0 {
		n += fieldSize(len(op.Value))
	}
	if len(op.DBVersion) > 0 {
		n += fieldSize(len(op.DBVersion))
	}
	if len(op.NewVersion) > 0 {
		n += fieldSize(len(op.NewVersion))
	}
	if op.Force {
		n += fieldSize(1)
	}
	return n
}

// appendBatchOpBody appends op's nested TLV fields to buf.
func appendBatchOpBody(buf []byte, op BatchOp) []byte {
	buf = appendField(buf, bOp, []byte{byte(op.Op)})
	buf = appendField(buf, bKey, op.Key)
	if len(op.Value) > 0 {
		buf = appendField(buf, bValue, op.Value)
	}
	if len(op.DBVersion) > 0 {
		buf = appendField(buf, bDBVersion, op.DBVersion)
	}
	if len(op.NewVersion) > 0 {
		buf = appendField(buf, bNewVersion, op.NewVersion)
	}
	if op.Force {
		buf = appendField(buf, bForce, []byte{1})
	}
	return buf
}

func unmarshalBatchOp(data []byte) (BatchOp, error) {
	var op BatchOp
	for len(data) > 0 {
		tag, val, rest, err := readField(data)
		if err != nil {
			return op, err
		}
		data = rest
		switch tag {
		case bOp:
			if len(val) != 1 {
				return op, errors.New("wire: bad batch op kind")
			}
			op.Op = BatchOpKind(val[0])
		case bKey:
			op.Key = alias(val)
		case bValue:
			op.Value = alias(val)
		case bDBVersion:
			op.DBVersion = alias(val)
		case bNewVersion:
			op.NewVersion = alias(val)
		case bForce:
			op.Force = len(val) == 1 && val[0] == 1
		}
	}
	return op, nil
}

// Group status field tags (nested TLV inside fGroupStatus).
const (
	gStatus uint8 = iota + 1
	gFailedIndex
	gStatusMsg
)

// groupStatusSize is the exact encoded size of one group verdict.
func groupStatusSize(g BatchGroupStatus) int {
	n := fieldSize(1)
	if g.FailedIndex != 0 {
		n += fieldSize(4)
	}
	if g.StatusMsg != "" {
		n += fieldSize(len(g.StatusMsg))
	}
	return n
}

// appendGroupStatusBody appends g's nested TLV fields to buf.
func appendGroupStatusBody(buf []byte, g BatchGroupStatus) []byte {
	buf = appendField(buf, gStatus, []byte{byte(g.Status)})
	if g.FailedIndex != 0 {
		var fi [4]byte
		binary.BigEndian.PutUint32(fi[:], g.FailedIndex)
		buf = appendField(buf, gFailedIndex, fi[:])
	}
	if g.StatusMsg != "" {
		buf = appendField(buf, gStatusMsg, []byte(g.StatusMsg))
	}
	return buf
}

func unmarshalGroupStatus(data []byte) (BatchGroupStatus, error) {
	var g BatchGroupStatus
	for len(data) > 0 {
		tag, val, rest, err := readField(data)
		if err != nil {
			return g, err
		}
		data = rest
		switch tag {
		case gStatus:
			if len(val) != 1 {
				return g, errors.New("wire: bad group status")
			}
			g.Status = StatusCode(val[0])
		case gFailedIndex:
			if len(val) != 4 {
				return g, errors.New("wire: bad group failedIndex")
			}
			g.FailedIndex = binary.BigEndian.Uint32(val)
		case gStatusMsg:
			g.StatusMsg = string(val)
		}
	}
	return g, nil
}

func unmarshalLogEntry(data []byte) (string, string, error) {
	var k, v string
	for len(data) > 0 {
		tag, val, rest, err := readField(data)
		if err != nil {
			return "", "", err
		}
		data = rest
		switch tag {
		case 1:
			k = string(val)
		case 2:
			v = string(val)
		}
	}
	return k, v, nil
}

// appendField appends tag | uvarint length | value.
func appendField(buf []byte, tag uint8, val []byte) []byte {
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	return append(buf, val...)
}

// readField decodes one TLV field, returning the remaining bytes.
func readField(data []byte) (tag uint8, val, rest []byte, err error) {
	if len(data) < 2 {
		return 0, nil, nil, errors.New("wire: truncated field header")
	}
	tag = data[0]
	n, sz := binary.Uvarint(data[1:])
	if sz <= 0 || n > math.MaxInt32 {
		return 0, nil, nil, errors.New("wire: bad field length")
	}
	start := 1 + sz
	if uint64(len(data)-start) < n {
		return 0, nil, nil, errors.New("wire: truncated field value")
	}
	return tag, data[start : start+int(n)], data[start+int(n):], nil
}

// alias returns b as a decoded field: nil when empty, otherwise capped
// at its length so an append by the holder reallocates instead of
// overwriting the next field of the frame.
func alias(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}
