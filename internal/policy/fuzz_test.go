package policy

import (
	"math"
	"testing"
)

// FuzzPolicyParse feeds arbitrary command-line policy names, "hier:"
// org-weight specs above all, through Parse. Each either fails with an
// error or yields a policy whose targets on a small fixed snapshot keep
// the Targets contract: every Alloc and Weight entry finite and
// non-negative, every Alloc column summing to at most 1. Neither Parse
// nor Allocate may panic.
func FuzzPolicyParse(f *testing.F) {
	for _, seed := range []string{
		"", "static", "maxmin", "max-min", "cost", "hier", "hierarchical",
		"hier:acme=3,bitco=1", "hier:acme=3,", "hier:=2", "hier:acme=-1",
		"hier:acme=NaN", "hier:acme=1e308,bitco=1e308", "hier:acme=1e-300",
		"hier:acme=5e-324", "maxmin:acme=1", "nope",
	} {
		f.Add(seed)
	}
	s := mixedFleet(
		Tenant{Name: "a1", Org: "acme", Weight: 2, Demand: 2},
		Tenant{Name: "a2", Org: "acme", Weight: 1, Demand: 0.5},
		Tenant{Name: "b1", Org: "bitco", Weight: 1, Demand: 2},
		Tenant{Name: "solo", Weight: 0.5, Demand: 1},
	)
	f.Fuzz(func(t *testing.T, name string) {
		p, err := Parse(name)
		if err != nil {
			return
		}
		tg := p.Allocate(s)
		if len(tg.Alloc) != len(s.Tenants) || len(tg.Weight) != len(s.Tenants) {
			t.Fatalf("%q: %d alloc rows and %d weights for %d tenants", name, len(tg.Alloc), len(tg.Weight), len(s.Tenants))
		}
		cols := make([]float64, len(s.Classes))
		for i, row := range tg.Alloc {
			if w := tg.Weight[i]; !(w >= 0) || math.IsInf(w, 0) {
				t.Fatalf("%q: tenant %d weight %v, want finite and non-negative", name, i, w)
			}
			for c, frac := range row {
				if !(frac >= 0) || math.IsInf(frac, 0) {
					t.Fatalf("%q: Alloc[%d][%d] = %v, want finite and non-negative", name, i, c, frac)
				}
				cols[c] += frac
			}
		}
		for c, sum := range cols {
			if sum > 1+1e-9 {
				t.Fatalf("%q: class %d allocated %v of its capacity, want at most 1", name, c, sum)
			}
		}
	})
}
