package sim

import (
	"math/rand"
	"testing"
)

func TestStreamSeedDeterministic(t *testing.T) {
	a := StreamSeed(1, "fig6", 3)
	b := StreamSeed(1, "fig6", 3)
	if a != b {
		t.Fatalf("StreamSeed not deterministic: %d vs %d", a, b)
	}
	if a < 0 {
		t.Fatalf("StreamSeed returned negative seed %d", a)
	}
}

func TestStreamSeedKeySensitivity(t *testing.T) {
	base := StreamSeed(1, "fig6", 3)
	for name, other := range map[string]int64{
		"base seed": StreamSeed(2, "fig6", 3),
		"name":      StreamSeed(1, "fig7", 3),
		"index":     StreamSeed(1, "fig6", 4),
	} {
		if other == base {
			t.Errorf("changing %s did not change the stream seed", name)
		}
	}
}

// ForkNamed must depend only on the construction seed and the key, never
// on how many draws the parent has made — that is what makes scenario
// streams identical regardless of worker-pool execution order.
func TestForkNamedIgnoresParentState(t *testing.T) {
	g := NewRNG(42)
	fresh := g.ForkNamed("scenario", 7).Float64()
	for i := 0; i < 100; i++ {
		g.Float64()
	}
	again := g.ForkNamed("scenario", 7).Float64()
	if fresh != again {
		t.Fatalf("ForkNamed stream changed after parent draws: %v vs %v", fresh, again)
	}
}

// Fork, by contrast, consumes parent state: two successive forks with the
// same id must differ (one stream per task).
func TestForkConsumesParentState(t *testing.T) {
	g := NewRNG(42)
	a := g.Fork(1).Float64()
	b := g.Fork(1).Float64()
	if a == b {
		t.Fatal("successive Fork(1) calls produced the same stream")
	}
}

// eagerRNG is the reference oracle for RNG's lazy seeding: the same
// generator with its math/rand source built at construction.
type eagerRNG struct {
	seed int64
	r    *rand.Rand
}

func newEagerRNG(seed int64) *eagerRNG {
	return &eagerRNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

func (g *eagerRNG) Fork(id int64) *eagerRNG {
	return newEagerRNG(g.r.Int63() ^ id*0x6A09E667F3BCC909)
}

func (g *eagerRNG) ForkNamed(name string, index int) *eagerRNG {
	return newEagerRNG(StreamSeed(g.seed, name, index))
}

func (g *eagerRNG) Jitter(d Duration, frac float64) Duration {
	if frac <= 0 {
		return d
	}
	return Duration(float64(d) * (1 + frac*(2*g.r.Float64()-1)))
}

// TestLazyRNGMatchesEager drives lazily seeded generators and their
// eagerly seeded oracles through the same interleaved script — draws
// of every kind, forks taken before and after draws, named forks that
// are never drawn from until much later — and requires every value to
// match.
func TestLazyRNGMatchesEager(t *testing.T) {
	lazy := []*RNG{NewRNG(7)}
	eager := []*eagerRNG{newEagerRNG(7)}
	script := rand.New(rand.NewSource(99)) // picks ops, not values
	for step := 0; step < 5000; step++ {
		i := script.Intn(len(lazy))
		l, e := lazy[i], eager[i]
		switch op := script.Intn(6); op {
		case 0:
			if a, b := l.Float64(), e.r.Float64(); a != b {
				t.Fatalf("step %d stream %d: Float64 %v, eager %v", step, i, a, b)
			}
		case 1:
			n := 1 + script.Intn(1000)
			if a, b := l.Intn(n), e.r.Intn(n); a != b {
				t.Fatalf("step %d stream %d: Intn(%d) %d, eager %d", step, i, n, a, b)
			}
		case 2:
			frac := float64(script.Intn(3)) / 4 // 0 draws nothing
			if a, b := l.Jitter(Duration(1e6), frac), e.Jitter(Duration(1e6), frac); a != b {
				t.Fatalf("step %d stream %d: Jitter %v, eager %v", step, i, a, b)
			}
		case 3, 4:
			if len(lazy) < 64 {
				id := int64(script.Intn(4))
				if op == 3 {
					lazy, eager = append(lazy, l.Fork(id)), append(eager, e.Fork(id))
				} else {
					lazy, eager = append(lazy, l.ForkNamed("s", int(id))), append(eager, e.ForkNamed("s", int(id)))
				}
			}
		case 5: // a named fork is independent of draws: check it afresh
			if a, b := l.ForkNamed("probe", step).Float64(), e.ForkNamed("probe", step).r.Float64(); a != b {
				t.Fatalf("step %d stream %d: ForkNamed draw %v, eager %v", step, i, a, b)
			}
		}
	}
}

// rngSink keeps the generators under test on the heap.
var rngSink *RNG

// TestUndrawnRNGAllocatesOnlyItsWrapper: a generator that is never
// drawn from, and the named streams forked from it, cost one small
// allocation each — the math/rand source is built on the first draw.
func TestUndrawnRNGAllocatesOnlyItsWrapper(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { rngSink = NewRNG(1) }); got != 1 {
		t.Errorf("NewRNG: %.0f allocs, want 1", got)
	}
	g := NewRNG(1)
	if got := testing.AllocsPerRun(100, func() { rngSink = g.ForkNamed("s", 3) }); got != 1 {
		t.Errorf("ForkNamed: %.0f allocs, want 1", got)
	}
	if got := testing.AllocsPerRun(1, func() { NewRNG(1).Float64() }); got < 2 {
		t.Errorf("first draw: %.0f allocs; the source is not being built lazily where the test expects", got)
	}
}
