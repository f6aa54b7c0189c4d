// Scan engine of the v2 API: prefix/range listing over the object
// namespace with opaque pagination tokens. GetKeyRange — dead weight
// above the drive layer until now — fans out across every drive
// concurrently; the per-drive sorted key streams are merge-
// deduplicated under the placement map, and every page is policy-
// filtered server-side so callers never observe keys they cannot
// read (the OPA lesson: enumeration must be policy-aware at the
// server, never client-side).
package core

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/authority"
	"repro/internal/policy/lang"
	"repro/internal/store"
)

// Scan page size bounds.
const (
	DefaultScanLimit = 100
	MaxScanLimit     = 512
)

// ScanOptions parameterizes one page of a listing.
type ScanOptions struct {
	// Prefix restricts the listing to keys with this prefix ("" lists
	// everything readable).
	Prefix string
	// Start, when set, begins the listing at the first key >= Start
	// (within the prefix). Ignored when Token resumes a listing.
	Start string
	// Limit caps the entries per page (0 selects DefaultScanLimit,
	// values above MaxScanLimit are clamped).
	Limit int
	// Token resumes a listing after a previous page. Tokens are
	// opaque: the resume position is sealed under an enclave-derived
	// key, so a token never discloses key material — in particular not
	// a policy-denied key the engine skipped at a page boundary.
	Token string
	// Certs are certified facts for the per-object policy checks.
	Certs []*authority.Certificate
}

// ScanEntry is one listed object: its key and current metadata. Keys
// ride as JSONKey so binary (non-UTF-8) keys survive the JSON body.
type ScanEntry struct {
	Key      JSONKey `json:"key"`
	Version  int64   `json:"version"`
	Size     int64   `json:"size"`
	PolicyID string  `json:"policy,omitempty"`
	// Class is the storage class ("ec:k+m" for erasure-coded streamed
	// objects, empty for fully replicated).
	Class string `json:"class,omitempty"`
}

// ScanPage is one page of a listing. NextToken is empty when the
// listing is known to be exhausted. ShardEpoch, on sharded
// controllers, is the shard map epoch the page was filtered under —
// every entry decision used that epoch's ownership view — so a
// cluster router can detect pages straddling a concurrent handoff
// and re-fetch instead of skipping or duplicating boundary keys.
type ScanPage struct {
	Entries    []ScanEntry `json:"entries"`
	NextToken  string      `json:"nextToken,omitempty"`
	ShardEpoch uint64      `json:"shardEpoch,omitempty"`
}

// Scan lists readable objects, one page per call.
func (s *Session) Scan(ctx context.Context, opts ScanOptions) (*ScanPage, error) {
	s.touch()
	return s.ctl.scanObjects(ctx, s.clientKey, opts)
}

// scanObjects serves one page. Each merged key's metadata comes from
// the key cache or from the values the range read returned with it
// (scanMeta), and the object's policy decides visibility.
func (c *Controller) scanObjects(ctx context.Context, sessionKey string, opts ScanOptions) (*ScanPage, error) {
	if strings.ContainsRune(opts.Prefix, 0) || strings.ContainsRune(opts.Start, 0) {
		return nil, fmt.Errorf("%w: scan bounds must not contain NUL", ErrInvalidArgument)
	}
	limit := opts.Limit
	if limit <= 0 {
		limit = DefaultScanLimit
	}
	if limit > MaxScanLimit {
		limit = MaxScanLimit
	}
	lower, inclusive := opts.Prefix, true
	if opts.Start > lower {
		lower = opts.Start
	}
	if opts.Token != "" {
		resume, err := c.unsealScanToken(opts.Token, opts.Prefix)
		if err != nil {
			return nil, err
		}
		if resume >= lower {
			lower, inclusive = resume, false
		}
	}
	_, rangeEnd := store.MetaKeyRange(opts.Prefix)

	// Epoch-consistent ownership view: the whole page filters against
	// one snapshot, so it is exactly the listing of this shard at that
	// epoch even if a handoff commits mid-scan.
	shardEpoch, ownedRanges, sharded := c.shardSnapshot()

	page := &ScanPage{Entries: []ScanEntry{}, ShardEpoch: shardEpoch}
	cursor := store.MetaKey(lower)
	var filtered uint64
	defer func() {
		// Load accounting: a scan page charges one read per listed
		// entry (meta-only, no payload bytes) so range-heavy workloads
		// show up in the balancer's histogram too.
		for i := range page.Entries {
			c.noteRead(string(page.Entries[i].Key), 0)
		}
		c.stats.Scans.Inc()
		c.stats.ScanFiltered.Add(filtered)
	}()
	for {
		merged, advance, exhausted, err := c.scanRound(ctx, cursor, inclusive, rangeEnd, limit+1)
		if err != nil {
			return nil, err
		}
		if len(merged) == 0 && exhausted {
			return page, nil
		}
		// One policyEval for the whole page: the resolved residual and
		// request scratch are reused across every candidate sharing a
		// policy, so the filter loop pays zero policy compilation or
		// cache lookups past the first key per policy.
		pe := &policyEval{}
		for _, sk := range merged {
			key := sk.key
			// The drive range's inclusive end can admit the first key
			// past the prefix, and sharded controllers list only keys
			// they own under the page's epoch snapshot (anything else is
			// migration residue the router gets from its owner).
			if !strings.HasPrefix(key, opts.Prefix) {
				continue
			}
			if sharded && !RangesContain(ownedRanges, store.ShardHash(key)) {
				continue
			}
			meta, err := c.scanMeta(ctx, sk)
			if errors.Is(err, ErrNotFound) {
				continue // deleted since the drives reported it
			}
			if err != nil {
				return nil, err
			}
			if err := c.checkPolicyCtx(ctx, pe, lang.PermRead, sessionKey, key, meta, nil, opts.Certs); err != nil {
				if errors.Is(err, ErrDenied) {
					filtered++
					continue
				}
				return nil, err
			}
			page.Entries = append(page.Entries, ScanEntry{
				Key: JSONKey(key), Version: meta.Version, Size: meta.Size, PolicyID: meta.PolicyID,
				Class: meta.StorageClass(),
			})
			if len(page.Entries) == limit {
				// More candidates may remain (in this round or on the
				// drives): hand back a resume token positioned on the
				// last *returned* key. Denied keys past it are
				// re-examined — and re-suppressed — next page, so no
				// page boundary ever leaks one.
				page.NextToken = c.sealScanToken(opts.Prefix, key)
				return page, nil
			}
		}
		if exhausted {
			return page, nil
		}
		// Resume past the completeness horizon: every key at or below
		// it has been merged and examined this round (even ones the
		// placement filter dropped, which is what keeps the cursor
		// advancing over stale artifacts).
		cursor, inclusive = advance, false
	}
}

// scanKey is one merged listing key with the raw metadata values the
// drives of its placement returned for it.
type scanKey struct {
	key  string
	vals [][]byte
}

// scanRound asks every drive for its next batch of metadata records
// in [cursor, rangeEnd], keys with values, and merges them. Because
// each drive truncates its response independently (at the count or at
// its byte budget), merged keys are only trustworthy up to the
// smallest last-key among truncated drives (the completeness horizon);
// keys beyond it are dropped and re-fetched next round. advance is the
// horizon — the drive key up to which this round is complete — for the
// caller's cursor. Up to Replicas-1 drive failures are tolerated:
// every object then still has a surviving replica reporting it.
func (c *Controller) scanRound(ctx context.Context, cursor []byte, inclusive bool, rangeEnd []byte, want int) (keys []scanKey, advance []byte, exhausted bool, err error) {
	fetch := want
	if fetch > driveRangeCap {
		fetch = driveRangeCap
	}
	type driveRecords struct {
		keys, vals [][]byte
		truncated  bool
		err        error
	}
	results := make([]driveRecords, len(c.drives))
	err = c.fanout(allDrives(len(c.drives)), func(di int) error {
		cl := c.drives[di].pick()
		c.chargeDriveIO(0)
		ks, vs, budgetCut, err := cl.GetKeyRangeValues(ctx, cursor, rangeEnd, inclusive, fetch)
		results[di] = driveRecords{keys: ks, vals: vs, truncated: budgetCut || len(ks) >= fetch, err: err}
		return nil
	})
	if err != nil {
		return nil, nil, false, err
	}

	failures, reported := 0, 0
	var lastErr error
	var horizon []byte // smallest last-key among truncated drives
	for _, r := range results {
		if r.err != nil {
			failures++
			lastErr = r.err
			continue
		}
		reported += len(r.keys)
		if r.truncated && len(r.keys) > 0 {
			last := r.keys[len(r.keys)-1]
			if horizon == nil || bytes.Compare(last, horizon) < 0 {
				horizon = last
			}
		}
	}
	if failures > 0 && failures >= c.cfg.Replicas {
		return nil, nil, false, fmt.Errorf("core: scan cannot guarantee coverage, %d drives failed: %w", failures, lastErr)
	}
	type record struct {
		dk, val []byte
		di      int
	}
	records := make([]record, 0, reported)
	for di, r := range results {
		for i, dk := range r.keys {
			if len(dk) < 2 || horizon != nil && bytes.Compare(dk, horizon) > 0 {
				continue // not a metadata key, or beyond the horizon
			}
			records = append(records, record{dk: dk, val: r.vals[i], di: di})
		}
	}
	slices.SortFunc(records, func(a, b record) int { return bytes.Compare(a.dk, b.dk) })

	// One entry per distinct key. vals slices one shared backing array
	// sized for every record, so it is never reallocated.
	vals := make([][]byte, 0, len(records))
	for i := 0; i < len(records); {
		j := i + 1
		for j < len(records) && bytes.Equal(records[j].dk, records[i].dk) {
			j++
		}
		key := string(records[i].dk[2:]) // strip the metadata namespace prefix
		// Placement sanity: only values from the key's placement count,
		// and a key reported only by drives outside it is a stale
		// artifact (e.g. of a drive-set change), not a live object.
		placement := c.placement(key)
		from := len(vals)
		for _, r := range records[i:j] {
			if slices.Contains(placement, r.di) {
				vals = append(vals, r.val)
			}
		}
		if len(vals) > from {
			keys = append(keys, scanKey{key: key, vals: vals[from:len(vals):len(vals)]})
		}
		i = j
	}
	return keys, horizon, horizon == nil, nil
}

// scanMeta resolves a listed key's metadata: the key cache entry when
// there is one (writes keep it current), else the newest version among
// the values the key's placement replicas returned with the range
// read, so a listing costs no drive round trip per key. Only when no
// value decodes does it fall back to a metadata load. Range-read
// metadata is never published to the key cache: writes and point
// reads keep feeding it.
func (c *Controller) scanMeta(ctx context.Context, sk scanKey) (*store.Meta, error) {
	if m, ok := c.metaCache.Get(sk.key); ok {
		return m, nil
	}
	var newest *store.Meta
	for _, v := range sk.vals {
		m, err := store.UnmarshalMeta(v)
		if err == nil && m.Key == sk.key && (newest == nil || m.Version > newest.Version) {
			newest = m
		}
	}
	if newest != nil {
		return newest, nil
	}
	return c.loadMeta(ctx, sk.key)
}

// allDrives enumerates every drive index (scans must consult all
// drives: placement spreads keys across the whole set).
func allDrives(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Pagination tokens. A token is the resume key plus the listing's
// prefix, sealed with AES-GCM under a key derived from the attested
// object key. Sealing keeps tokens opaque (no key material leaks, not
// even of policy-denied keys the page skipped) and self-
// authenticating (a tampered token fails open, ErrBadToken). Tokens
// carry a position, not a snapshot: listings resumed under concurrent
// writes stay valid and serve the keys now present past the position.

const scanTokenInfo = "pesos-scan-token-v1"

// initScanTokens derives the token sealing key; called at bootstrap.
func (c *Controller) initScanTokens() error {
	mac := hmac.New(sha256.New, c.secrets.ObjectKey[:])
	mac.Write([]byte(scanTokenInfo))
	block, err := aes.NewCipher(mac.Sum(nil))
	if err != nil {
		return err
	}
	c.scanTokens, err = cipher.NewGCM(block)
	return err
}

// sealScanToken builds the opaque resume token for a position.
func (c *Controller) sealScanToken(prefix, resume string) string {
	plain := make([]byte, 0, len(prefix)+len(resume)+1)
	plain = append(plain, prefix...)
	plain = append(plain, 0) // keys and prefixes never contain NUL
	plain = append(plain, resume...)
	nonce := make([]byte, c.scanTokens.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		// Entropy failure: returning no token truncates pagination
		// instead of minting a forgeable one.
		return ""
	}
	sealed := c.scanTokens.Seal(nonce, nonce, plain, nil)
	return base64.RawURLEncoding.EncodeToString(sealed)
}

// unsealScanToken authenticates a token and returns its resume key.
// The token must belong to a listing with the same prefix.
func (c *Controller) unsealScanToken(token, prefix string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil || len(raw) < c.scanTokens.NonceSize() {
		return "", ErrBadToken
	}
	ns := c.scanTokens.NonceSize()
	plain, err := c.scanTokens.Open(nil, raw[:ns], raw[ns:], nil)
	if err != nil {
		return "", ErrBadToken
	}
	p, resume, ok := strings.Cut(string(plain), "\x00")
	if !ok || p != prefix {
		return "", fmt.Errorf("%w: token belongs to a different listing", ErrBadToken)
	}
	return resume, nil
}
