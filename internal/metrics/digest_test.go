package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// exactQuantile returns the ceil(q*n)-th smallest sample — the same
// rank definition Digest.Quantile uses, so the two are comparable.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestDigestQuantileAccuracy compares p50/p95/p99 against exact
// sorted-sample quantiles on uniform, heavy-tailed, and constant
// distributions. The digest's stated error is half a sub-bucket (1/64
// relative, ~1.6%); the test allows 2% for rank-boundary effects.
func TestDigestQuantileAccuracy(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() time.Duration{
		"uniform": func() time.Duration { // 1 µs .. 1 ms
			return time.Microsecond + time.Duration(rng.Int63n(int64(999*time.Microsecond)))
		},
		"heavy-tailed": func() time.Duration { // Pareto, alpha 1.3, scale 50 µs
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			return time.Duration(float64(50*time.Microsecond) / math.Pow(u, 1/1.3))
		},
		"constant": func() time.Duration { return 250 * time.Microsecond },
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			var d Digest
			samples := make([]time.Duration, n)
			for i := range samples {
				samples[i] = draw()
				d.Add(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0.50, 0.95, 0.99} {
				exact := exactQuantile(samples, q)
				got := d.Quantile(q)
				relErr := math.Abs(float64(got-exact)) / float64(exact)
				if relErr > 0.02 {
					t.Errorf("q=%.2f: digest %v vs exact %v (rel err %.2f%%, want <= 2%%)",
						q, got, exact, 100*relErr)
				}
			}
			if name == "constant" {
				// One-point distributions must be exact: the reported value
				// is clamped to the observed min/max.
				for _, q := range []float64{0, 0.5, 1} {
					if got := d.Quantile(q); got != 250*time.Microsecond {
						t.Errorf("constant q=%.1f: got %v, want 250µs exactly", q, got)
					}
				}
			}
		})
	}
}

// TestDigestMerge: merging two halves must be equivalent to observing
// the whole stream in one digest.
func TestDigestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, a, b Digest
	for i := 0; i < 4000; i++ {
		v := time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q=%.2f: merged %v != whole %v", q, got, want)
		}
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged extremes [%v, %v] != whole [%v, %v]", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
}

// TestDigestEdgeCases: empty digests, zero/negative values, and Reset.
func TestDigestEdgeCases(t *testing.T) {
	var d Digest
	if d.Quantile(0.5) != 0 || d.N() != 0 {
		t.Fatal("empty digest should report 0")
	}
	d.Add(-time.Second) // clamps to 0
	d.Add(0)
	d.Add(10 * time.Nanosecond) // sub-32ns values are exact
	if got := d.Quantile(1); got != 10*time.Nanosecond {
		t.Fatalf("max quantile = %v, want 10ns", got)
	}
	if got := d.Quantile(0); got != 0 {
		t.Fatalf("min quantile = %v, want 0", got)
	}
	d.Reset()
	if d.N() != 0 || d.Quantile(0.5) != 0 {
		t.Fatal("Reset did not clear the digest")
	}
	d.Add(time.Hour) // far octave after reset still lands correctly
	if got := d.Quantile(0.5); got != time.Hour {
		t.Fatalf("post-reset quantile = %v, want 1h", got)
	}
}

// TestDigestBucketMonotone: bucket indexing must be monotone and
// midpoints must land inside their buckets across octave boundaries.
func TestDigestBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1 << 20, 1<<20 + 1, 1 << 40} {
		b := digestBucket(v)
		if b < prev {
			t.Fatalf("bucket(%d) = %d < previous %d", v, b, prev)
		}
		prev = b
		if got := digestBucket(digestMid(b)); got != b {
			t.Errorf("midpoint of bucket %d (value %d) maps to bucket %d", b, digestMid(b), got)
		}
	}
}

// denseDigest is the reference oracle for Digest: the same buckets,
// counted in a dense array from bucket 0 (the digest's original
// layout). FuzzDigest checks the windowed digest against it.
type denseDigest struct {
	counts          []int64
	total, min, max int64
}

func (d *denseDigest) Add(v time.Duration) {
	x := max(int64(v), 0)
	b := digestBucket(x)
	if b >= len(d.counts) {
		grown := make([]int64, b+1)
		copy(grown, d.counts)
		d.counts = grown
	}
	d.counts[b]++
	if d.total == 0 || x < d.min {
		d.min = x
	}
	if d.total == 0 || x > d.max {
		d.max = x
	}
	d.total++
}

func (d *denseDigest) Quantile(q float64) time.Duration {
	if d.total == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(q*float64(d.total))), 1), d.total)
	var cum int64
	for b, c := range d.counts {
		cum += c
		if cum >= rank {
			return time.Duration(min(max(digestMid(b), d.min), d.max))
		}
	}
	return time.Duration(d.max)
}

func (d *denseDigest) Merge(o *denseDigest) {
	if o.total == 0 {
		return
	}
	if len(o.counts) > len(d.counts) {
		grown := make([]int64, len(o.counts))
		copy(grown, d.counts)
		d.counts = grown
	}
	for b, c := range o.counts {
		d.counts[b] += c
	}
	if d.total == 0 || o.min < d.min {
		d.min = o.min
	}
	if d.total == 0 || o.max > d.max {
		d.max = o.max
	}
	d.total += o.total
}

func (d *denseDigest) Reset() {
	clear(d.counts)
	d.total, d.min, d.max = 0, 0, 0
}

// FuzzDigest drives two windowed digests and their dense oracles
// through an arbitrary encoded op sequence — Add (of a value spread
// over every octave), Merge either way, Reset — and after every op
// checks N, Min, Max and a sweep of quantiles against the oracle.
// Ops are 3 bytes: opcode, then a 16-bit operand.
func FuzzDigest(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 200, 9, 1, 3, 3, 2, 0, 0, 4, 0, 0, 0, 255, 255})
	f.Add([]byte{1, 120, 0, 1, 0, 1, 3, 0, 0, 0, 40, 40, 5, 0, 0, 2, 0, 0})
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w [2]Digest
		var o [2]denseDigest
		for n := 0; n+2 < len(data) && n < 3*1024; n += 3 {
			op, arg := data[n]%6, int64(data[n+1])<<8|int64(data[n+2])
			i := int(op & 1)
			switch op {
			case 0, 1: // add: the high bits pick the octave, the rest the mantissa
				v := time.Duration((arg&0x3ff)<<(arg>>10)) - 3
				w[i].Add(v)
				o[i].Add(v)
			case 2, 3: // merge the other digest into this one
				w[i].Merge(&w[1-i])
				o[i].Merge(&o[1-i])
			case 4, 5:
				w[i].Reset()
				o[i].Reset()
			}
			for j := range w {
				if w[j].N() != o[j].total || int64(w[j].Min()) != o[j].min || int64(w[j].Max()) != o[j].max {
					t.Fatalf("op %d: digest %d has N/min/max %d/%v/%v, oracle %d/%d/%d",
						n/3, j, w[j].N(), w[j].Min(), w[j].Max(), o[j].total, o[j].min, o[j].max)
				}
				for _, q := range qs {
					if got, want := w[j].Quantile(q), o[j].Quantile(q); got != want {
						t.Fatalf("op %d: digest %d q=%v: %v, oracle %v", n/3, j, q, got, want)
					}
				}
			}
		}
	})
}
