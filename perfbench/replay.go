package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

// errMismatch marks an operation whose reply failed verification.
var errMismatch = errors.New("verification failed")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

// opStats is what one replay observed from the clients' side.
type opStats struct {
	lat   [numKinds][]time.Duration // successful calls only
	bytes [numKinds]int64
	busy  [numKinds]time.Duration
	// attempted and failed count every trace operation; a failed
	// operation either returned an error or failed verification.
	attempted, failed int64
	completed         int64
	// ecPutBytes is the payload of streamed puts large enough for the
	// erasure-coded class.
	ecPutBytes int64
	elapsed    time.Duration
	firstErr   error
}

// add folds another replay's observations into s; elapsed times sum.
func (s *opStats) add(o *opStats) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
		s.bytes[k] += o.bytes[k]
		s.busy[k] += o.busy[k]
	}
	s.attempted += o.attempted
	s.failed += o.failed
	s.completed += o.completed
	s.ecPutBytes += o.ecPutBytes
	s.elapsed += o.elapsed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// spanNames are the benchmark's root span names by op kind.
var spanNames = [numKinds]string{"perfbench.get", "perfbench.put", "perfbench.scan"}

// replay runs every client's trace closed-loop, one goroutine per
// client, and returns when all have finished. With lay set, every call
// runs under the benchmark's own root span and its controller span
// tree is folded into lay.
func (d *deployment) replay(trace [][]op, lay *layers) *opStats {
	var tracer *obs.Tracer // nil records nothing
	if lay != nil {
		tracer = obs.NewTracer(obs.TracerConfig{})
	}
	per := make([]opStats, len(trace))
	perLay := make([]layers, len(trace))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range trace {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &per[c]
			for _, o := range trace[c] {
				ctx, root := tracer.Start(context.Background(), spanNames[o.kind], 0)
				dur, n, err := d.exec(ctx, c, o)
				root.End()
				st.attempted++
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("client %d %s: %w", c, o.kind, err)
					}
					continue
				}
				st.completed++
				st.lat[o.kind] = append(st.lat[o.kind], dur)
				st.bytes[o.kind] += n
				st.busy[o.kind] += dur
				if d.sp.isStream() && o.kind == opPut && n >= ecMinBytes {
					st.ecPutBytes += n
				}
				if lay != nil {
					perLay[c].add(d, o, dur, n, obs.TraceID(ctx))
				}
			}
		}()
	}
	wg.Wait()
	out := &opStats{elapsed: time.Since(start)}
	for c := range per {
		out.add(&per[c])
		if lay != nil {
			lay.merge(&perLay[c])
		}
	}
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n",
			out.failed, out.attempted, out.firstErr)
	}
	return out
}

// exec performs one operation as client c, verifies the reply and
// returns the call's duration and payload bytes. The clock covers the
// client call alone: key locks and verification stay outside it.
func (d *deployment) exec(ctx context.Context, c int, o op) (time.Duration, int64, error) {
	if d.sp.isStream() {
		return d.execStream(ctx, c, o)
	}
	cl := d.clients[c]
	i := o.key
	switch o.kind {
	case opGet:
		lo := d.acked[i].Load()
		t0 := time.Now()
		body, meta, err := cl.Get(ctx, d.keys[i], client.GetOptions{})
		dur := time.Since(t0)
		if err != nil {
			return dur, 0, err
		}
		if hi := d.acked[i].Load(); meta.Version < lo || meta.Version > hi+1 {
			return dur, 0, mismatch("get %s returned version %d outside acknowledged [%d, %d]", d.keys[i], meta.Version, lo, hi+1)
		}
		if !bytes.Equal(body, d.kvPayload(i, meta.Version)) {
			return dur, 0, mismatch("get %s@%d returned other bytes", d.keys[i], meta.Version)
		}
		return dur, int64(len(body)), nil
	case opPut:
		d.locks[i].Lock()
		defer d.locks[i].Unlock()
		next := d.acked[i].Load() + 1
		body := d.kvPayload(i, next)
		t0 := time.Now()
		v, err := cl.Put(ctx, d.keys[i], body, client.PutOptions{Version: next, HasVersion: true})
		dur := time.Since(t0)
		if err != nil {
			return dur, 0, err
		}
		if v != next {
			return dur, 0, mismatch("put %s@%d acknowledged version %d", d.keys[i], next, v)
		}
		d.acked[i].Store(next)
		return dur, int64(len(body)), nil
	default:
		t0 := time.Now()
		page, err := cl.List(ctx, client.ListOptions{Start: d.keys[i], Limit: o.n})
		dur := time.Since(t0)
		if err != nil {
			return dur, 0, err
		}
		return dur, 0, checkPage(pageKeys(page), d.keys, i, o.n, page.NextToken == "")
	}
}

// checkPage verifies a listing page that starts at want[from] and asks
// for limit entries: it must be the next keys of the ascending key set
// in order, inside the range, without duplicates, and complete when
// the listing says it is exhausted.
func checkPage(got, want []string, from, limit int, last bool) error {
	if len(got) > limit {
		return mismatch("scan from %s returned %d entries for limit %d", want[from], len(got), limit)
	}
	for j, k := range got {
		if from+j >= len(want) || k != want[from+j] {
			return mismatch("scan from %s: entry %d is %q, want the next key in order", want[from], j, k)
		}
	}
	if exp := min(limit, len(want)-from); len(got) < exp && last {
		return mismatch("scan from %s ended after %d of %d entries", want[from], len(got), exp)
	}
	if len(got) == 0 {
		return mismatch("scan from %s returned an empty page", want[from])
	}
	return nil
}

// pageKeys lists a page's keys in order.
func pageKeys(page *client.ListPage) []string {
	keys := make([]string, len(page.Entries))
	for i, e := range page.Entries {
		keys[i] = string(e.Key)
	}
	return keys
}

// opErr folds a v2 call's per-operation error into its transport error.
func opErr(res client.OpResult, err error) error {
	if err == nil && res.Err != nil {
		return res.Err
	}
	return err
}

// execStream performs one stream-workload operation.
func (d *deployment) execStream(ctx context.Context, c int, o op) (time.Duration, int64, error) {
	cl := d.clients[c]
	switch o.kind {
	case opGet:
		obj := d.readSet[o.key]
		buf := d.bufs[c]
		buf.Reset()
		t0 := time.Now()
		rc, _, err := cl.GetStream(ctx, obj.key, client.GetOptions{})
		if err != nil {
			return time.Since(t0), 0, err
		}
		_, err = buf.ReadFrom(rc)
		rc.Close()
		dur := time.Since(t0)
		if err != nil {
			return dur, 0, err
		}
		if buf.Len() != obj.size || sha256.Sum256(buf.Bytes()) != obj.sum {
			return dur, 0, mismatch("get stream %s: %d bytes with another SHA-256 than the %d written", obj.key, buf.Len(), obj.size)
		}
		return dur, int64(obj.size), nil
	case opPut:
		size := d.sp.sizes[o.key]
		key := freshKey(c, d.nextSeq[c])
		d.nextSeq[c]++
		t0 := time.Now()
		res, err := cl.PutStream(ctx, key, bytes.NewReader(d.streamPayload(key, size)), client.PutOptions{})
		dur := time.Since(t0)
		if err = opErr(res, err); err != nil {
			return dur, 0, err
		}
		if res.Version != 0 {
			return dur, 0, mismatch("put stream %s created version %d", key, res.Version)
		}
		d.live[c] = append(d.live[c], streamObj{key: key, size: size})
		// Retire the client's oldest object so the live set stays
		// bounded; the delete is untimed and untraced but must succeed.
		if len(d.live[c]) > d.sp.window {
			old := d.live[c][0]
			if err := opErr(cl.DeleteOp(context.Background(), old.key, false)); err != nil {
				return dur, 0, fmt.Errorf("retire %s: %w", old.key, err)
			}
			d.live[c] = d.live[c][1:]
		}
		return dur, int64(size), nil
	default:
		t0 := time.Now()
		page, err := cl.List(ctx, client.ListOptions{Prefix: "r/", Start: d.readSet[o.key].key, Limit: o.n})
		dur := time.Since(t0)
		if err != nil {
			return dur, 0, err
		}
		return dur, 0, checkPage(pageKeys(page), d.readKeys, o.key, o.n, page.NextToken == "")
	}
}
