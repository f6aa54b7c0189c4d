package main

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Per-layer op names: a stream workload's reads and writes are the
// streamed calls.
const (
	lGet = iota
	lPut
	lScan
	lStreamPut
	lStreamGet
	numLayerOps
)

var layerOpNames = [numLayerOps]string{"get", "put", "scan", "stream_put", "stream_get"}

func layerOp(sp spec, k opKind) int {
	switch {
	case k == opScan:
		return lScan
	case sp.isStream() && k == opGet:
		return lStreamGet
	case sp.isStream():
		return lStreamPut
	case k == opGet:
		return lGet
	}
	return lPut
}

// opLayers sums, over the traced calls of one op, the time each layer
// took, in microseconds.
type opLayers struct {
	n          int
	clientSelf float64 // client-observed minus the controller's root span
	coreSelf   float64 // root minus the union of its children
	policy     float64 // union of policy_eval spans
	replicate  float64 // union of replicate spans
	gcommit    float64 // union of gcommit_wait spans
	wire       float64 // drive spans minus the drive's media_us
	service    float64 // the drive's media_us
	calls      float64 // drive spans

	// Streamed bytes and controller root time by storage class.
	replBytes, ecBytes int64
	replUs, ecUs       float64
}

// layers accumulates one traced replay.
type layers struct {
	ops     [numLayerOps]opLayers
	missing int // calls whose controller trace was not found
}

func (l *layers) merge(o *layers) {
	for i := range l.ops {
		a, b := &l.ops[i], &o.ops[i]
		a.n += b.n
		a.clientSelf += b.clientSelf
		a.coreSelf += b.coreSelf
		a.policy += b.policy
		a.replicate += b.replicate
		a.gcommit += b.gcommit
		a.wire += b.wire
		a.service += b.service
		a.calls += b.calls
		a.replBytes += b.replBytes
		a.ecBytes += b.ecBytes
		a.replUs += b.replUs
		a.ecUs += b.ecUs
	}
	l.missing += o.missing
}

// traceWait bounds how long the benchmark polls for a controller
// trace: the controller stores it when its handler returns, which can
// trail the client's last byte of a streamed reply.
const traceWait = 50 * time.Millisecond

// add pulls trace id's span tree from the controller and folds it
// into the op's sums.
func (l *layers) add(d *deployment, o op, clientDur time.Duration, n int64, id uint64) {
	var dump *obs.TraceDump
	for deadline := time.Now().Add(traceWait); ; time.Sleep(100 * time.Microsecond) {
		if dump = d.tb.Controller.TraceDump(id); dump != nil || time.Now().After(deadline) {
			break
		}
	}
	if dump == nil {
		l.missing++
		return
	}
	var root *obs.SpanDump
	for i := range dump.Spans {
		if dump.Spans[i].Parent == 0 {
			root = &dump.Spans[i]
			break
		}
	}
	if root == nil {
		l.missing++
		return
	}
	a := &l.ops[layerOp(d.sp, o.kind)]
	a.n++
	rootUs := float64(root.DurUs)
	a.clientSelf += float64(clientDur.Microseconds()) - rootUs
	var children, policy, replicate, gcommit []span
	for _, s := range dump.Spans {
		iv := span{s.StartUs, s.StartUs + s.DurUs}
		if s.Parent == root.ID {
			children = append(children, iv)
		}
		switch s.Name {
		case "policy_eval":
			policy = append(policy, iv)
		case "replicate":
			replicate = append(replicate, iv)
		case "gcommit_wait":
			gcommit = append(gcommit, iv)
		case "drive":
			media, _ := strconv.ParseInt(s.Attrs["media_us"], 10, 64)
			a.calls++
			a.service += float64(media)
			a.wire += float64(max(s.DurUs-media, 0))
		}
	}
	a.coreSelf += rootUs - unionUs(children)
	a.policy += unionUs(policy)
	a.replicate += unionUs(replicate)
	a.gcommit += unionUs(gcommit)
	if d.sp.isStream() && o.kind != opScan {
		if n >= ecMinBytes {
			a.ecBytes += n
			a.ecUs += rootUs
		} else {
			a.replBytes += n
			a.replUs += rootUs
		}
	}
}

// span is a [start, end) interval in microseconds.
type span struct{ start, end int64 }

// unionUs is the length covered by the intervals.
func unionUs(iv []span) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total int64
	cur := iv[0]
	for _, s := range iv[1:] {
		if s.start > cur.end {
			total += cur.end - cur.start
			cur = s
			continue
		}
		cur.end = max(cur.end, s.end)
	}
	return float64(total + cur.end - cur.start)
}
