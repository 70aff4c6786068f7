package metrics

import (
	"math"
	"math/bits"
	"time"
)

// digestSubBits sets the Digest's resolution: each power-of-two octave
// is split into 2^digestSubBits linear sub-buckets.
const digestSubBits = 5

// digestSubCount is the number of linear sub-buckets per octave (32).
const digestSubCount = 1 << digestSubBits

// digestBuckets is the number of buckets that cover every non-negative
// int64: the exact ones below digestSubCount, then one octave of
// digestSubCount sub-buckets per remaining bit.
const digestBuckets = (64 - digestSubBits) << digestSubBits

// digestSlack is how far, in buckets, a digest's first window reaches
// past its first observation on either side: two octaves, so a
// stream's usual spread fits without regrowing.
const digestSlack = 2 * digestSubCount

// Digest is a streaming quantile sketch for latency observations — an
// HDR-histogram-style structure: exact counts below 32 ns, then 32
// linear sub-buckets per power-of-two octave. Adds are O(1), memory is
// bounded (~1900 buckets covers 1 ns to ~292 years), digests merge by
// bucket-wise addition, and everything is deterministic — no sampling,
// no randomized compaction — so parallel and serial experiment runs
// stay byte-identical.
//
// Counts are stored only over the bucket window the digest has seen:
// counts[i] is bucket lo+i, and the window grows geometrically toward
// whichever side a new observation falls outside it. A tenant whose
// latencies span a few octaves holds a hundred-odd buckets, not the
// ~600 a dense array from bucket 0 needs to reach a millisecond.
//
// Accuracy: a reported quantile is the midpoint of the bucket holding
// the true rank-q observation, so its relative error is at most half a
// sub-bucket width — 1/64 (~1.6%) — for values >= 32 ns, and zero below.
// Reported values are additionally clamped to the observed [min, max],
// making one-point distributions exact. TestDigestQuantileAccuracy pins
// the bound against exact sorted-sample quantiles.
type Digest struct {
	counts []int64
	lo     int
	total  int64
	min    int64
	max    int64
}

// digestBucket maps a non-negative value to its bucket index.
func digestBucket(v int64) int {
	if v < digestSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v) >= digestSubBits
	shift := exp - digestSubBits
	base := (exp - digestSubBits + 1) << digestSubBits
	return base + int((v>>shift)&(digestSubCount-1))
}

// digestMid returns the midpoint value of a bucket.
func digestMid(b int) int64 {
	if b < digestSubCount {
		return int64(b)
	}
	block := b >> digestSubBits
	sub := int64(b & (digestSubCount - 1))
	shift := block - 1
	low := (digestSubCount + sub) << shift
	return low + (int64(1)<<shift)/2
}

// Add records one duration observation. Negative durations count as 0.
func (d *Digest) Add(v time.Duration) {
	x := int64(v)
	if x < 0 {
		x = 0
	}
	b := digestBucket(x)
	if b < d.lo || b >= d.lo+len(d.counts) {
		d.reach(b, b+1)
	}
	d.counts[b-d.lo]++
	if d.total == 0 || x < d.min {
		d.min = x
	}
	if d.total == 0 || x > d.max {
		d.max = x
	}
	d.total++
}

// N returns the observation count.
func (d *Digest) N() int64 { return d.total }

// Min and Max return the exact observed extremes (0 when empty).
func (d *Digest) Min() time.Duration { return time.Duration(d.min) }
func (d *Digest) Max() time.Duration { return time.Duration(d.max) }

// Quantile returns the value at quantile q in [0, 1] — the bucket
// midpoint of the ceil(q*N)-th smallest observation, clamped to the
// observed range. An empty digest returns 0.
func (d *Digest) Quantile(q float64) time.Duration {
	if d.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(d.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > d.total {
		rank = d.total
	}
	var cum int64
	for i, c := range d.counts {
		cum += c
		if cum >= rank {
			v := digestMid(d.lo + i)
			if v < d.min {
				v = d.min
			}
			if v > d.max {
				v = d.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(d.max)
}

// Merge folds another digest's observations into this one.
func (d *Digest) Merge(o *Digest) {
	if o.total == 0 {
		return
	}
	d.reach(o.lo, o.lo+len(o.counts))
	at := d.counts[o.lo-d.lo:]
	for i, c := range o.counts {
		at[i] += c
	}
	if d.total == 0 || o.min < d.min {
		d.min = o.min
	}
	if d.total == 0 || o.max > d.max {
		d.max = o.max
	}
	d.total += o.total
}

// reach widens the window to cover buckets [lo, hi). The first window
// spans two octaves either side of what it must cover; a window that
// must grow at least doubles, extending on the side it grew toward
// (clipped to the bucket range), so a drifting stream regrows it a
// logarithmic number of times.
func (d *Digest) reach(lo, hi int) {
	if len(d.counts) == 0 {
		lo, hi = max(0, lo-digestSlack), min(digestBuckets, hi+digestSlack)
		d.lo, d.counts = lo, make([]int64, hi-lo)
		return
	}
	oldLo, oldHi := d.lo, d.lo+len(d.counts)
	if lo >= oldLo && hi <= oldHi {
		return
	}
	lo, hi = min(lo, oldLo), max(hi, oldHi)
	if n := 2 * len(d.counts); hi-lo < n {
		if lo < oldLo {
			lo = max(0, hi-n)
		} else {
			hi = min(digestBuckets, lo+n)
		}
	}
	grown := make([]int64, hi-lo)
	copy(grown[oldLo-lo:], d.counts)
	d.lo, d.counts = lo, grown
}

// Reset clears the digest for reuse (warmup exclusion). The window and
// its storage are kept.
func (d *Digest) Reset() {
	for i := range d.counts {
		d.counts[i] = 0
	}
	d.total, d.min, d.max = 0, 0, 0
}
