package ec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestRoundTrip fuzzes encode/decode identity across random (k, m,
// size): for every combination, dropping any m shards still
// reconstructs the original data exactly.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(8)
		m := 1 + rng.Intn(4)
		size := 1 + rng.Intn(4096)
		c, err := New(k, m)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", k, m, err)
		}
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, size)
			rng.Read(data[i])
		}
		parity := make([][]byte, m)
		for j := range parity {
			parity[j] = make([]byte, size)
		}
		if err := c.Encode(data, parity); err != nil {
			t.Fatalf("Encode: %v", err)
		}

		// Drop a random set of exactly m shards.
		shards := make([][]byte, k+m)
		for i := range data {
			shards[i] = append([]byte(nil), data[i]...)
		}
		for j := range parity {
			shards[k+j] = append([]byte(nil), parity[j]...)
		}
		for _, di := range rng.Perm(k + m)[:m] {
			shards[di] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("Reconstruct k=%d m=%d: %v", k, m, err)
		}
		for i := range data {
			if !bytes.Equal(shards[i], data[i]) {
				t.Fatalf("k=%d m=%d size=%d: data shard %d differs after reconstruction", k, m, size, i)
			}
		}
		for j := range parity {
			if !bytes.Equal(shards[k+j], parity[j]) {
				t.Fatalf("k=%d m=%d size=%d: parity shard %d differs after reconstruction", k, m, size, j)
			}
		}
	}
}

// TestEncodeAddIncremental checks the streaming accumulation path:
// folding shards one at a time (with a short final shard) matches
// Encode over zero-padded input.
func TestEncodeAddIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1024
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	// Shorten the last shard; zero-pad the reference copy.
	short := append([]byte(nil), data[3][:100]...)
	padded := make([]byte, size)
	copy(padded, short)
	data[3] = padded

	want := [][]byte{make([]byte, size), make([]byte, size)}
	if err := c.Encode(data, want); err != nil {
		t.Fatal(err)
	}

	got := [][]byte{make([]byte, size), make([]byte, size)}
	for i := 0; i < 3; i++ {
		c.EncodeAdd(got, i, data[i])
	}
	c.EncodeAdd(got, 3, short) // unpadded: EncodeAdd's implicit zero-fill
	for j := range want {
		if !bytes.Equal(got[j], want[j]) {
			t.Fatalf("incremental parity %d differs from batch encode", j)
		}
	}
}

// TestMulSliceXorMatchesByteTable checks the word-wide kernel against
// the byte-at-a-time table reference for every coefficient, every
// length from 0 to 67 (four 16-byte iterations and each ragged tail),
// and unaligned input and output offsets. Bytes of out past len(in)
// must stay untouched.
func TestMulSliceXorMatchesByteTable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const maxLen, maxOff, slack = 67, 7, 9
	src := make([]byte, maxOff+maxLen)
	rng.Read(src)
	base := make([]byte, maxOff+maxLen+slack)
	rng.Read(base)
	offsets := [][2]int{{0, 0}, {1, 0}, {0, 3}, {5, 7}, {7, 1}}
	for c := 0; c < fieldSize; c++ {
		for n := 0; n <= maxLen; n++ {
			for _, off := range offsets {
				in := src[off[0] : off[0]+n]
				got := append([]byte(nil), base...)
				want := append([]byte(nil), base...)
				for i, v := range in {
					want[off[1]+i] ^= gfMulTable[c][v]
				}
				mulSliceXor(byte(c), in, got[off[1]:])
				if !bytes.Equal(got, want) {
					t.Fatalf("coef %d, len %d, offsets %v: word-wide kernel differs from byte table", c, n, off)
				}
			}
		}
	}
}

// TestTooManyLost verifies the decoder fails loudly — ErrShort, not
// silently wrong bytes — once m+1 shards are gone.
func TestTooManyLost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, km := range [][2]int{{4, 2}, {2, 1}, {6, 3}} {
		k, m := km[0], km[1]
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([][]byte, k+m)
		for i := range shards {
			shards[i] = make([]byte, 64)
			rng.Read(shards[i])
		}
		for _, di := range rng.Perm(k + m)[:m+1] {
			shards[di] = nil
		}
		if err := c.Reconstruct(shards); !errors.Is(err, ErrShort) {
			t.Fatalf("k=%d m=%d with %d lost: got %v, want ErrShort", k, m, m+1, err)
		}
	}
}

// TestParams rejects degenerate codes.
func TestParams(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {200, 100}} {
		if _, err := New(bad[0], bad[1]); !errors.Is(err, ErrParams) {
			t.Fatalf("New(%d,%d): got %v, want ErrParams", bad[0], bad[1], err)
		}
	}
	if _, err := New(4, 2); err != nil {
		t.Fatalf("New(4,2): %v", err)
	}
}

// TestMismatchedShardLengths rejects ragged shard sets instead of
// reading out of bounds.
func TestMismatchedShardLengths(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{make([]byte, 8), make([]byte, 9), nil}
	if err := c.Reconstruct(shards); !errors.Is(err, ErrShards) {
		t.Fatalf("got %v, want ErrShards", err)
	}
}

func BenchmarkEncode4x2(b *testing.B) {
	c, _ := New(4, 2)
	const size = 1 << 20
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, size)
		rand.New(rand.NewSource(int64(i))).Read(data[i])
	}
	parity := [][]byte{make([]byte, size), make([]byte, size)}
	b.SetBytes(4 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range parity {
			for x := range parity[j] {
				parity[j][x] = 0
			}
		}
		c.Encode(data, parity)
	}
}
