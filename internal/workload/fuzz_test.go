package workload

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/gpu"
)

// FuzzTenantSpecValidate feeds arbitrary contract terms — weight, tier,
// the channel kinds a spec opens and the kinds its mix submits —
// through TenantSpec.Validate. Each input either fails with an error or
// is a spec the sharing layers can use as is: a finite, positive
// ShareWeight, a known tier, and a channel open for every kind its mix
// submits. Validate never panics.
func FuzzTenantSpecValidate(f *testing.F) {
	f.Add(1.0, "", uint8(0), uint8(0))
	f.Add(0.0, "premium", uint8(1), uint8(1))
	f.Add(4.0, "best-effort", uint8(3), uint8(2))
	f.Add(-1.0, "standard", uint8(0), uint8(1))
	f.Add(math.NaN(), "gold", uint8(7), uint8(9))
	f.Add(math.Inf(1), "", uint8(2), uint8(0))
	f.Add(5e-324, "", uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, weight float64, tier string, open, mix uint8) {
		// Bits of open pick the channels, bits of mix the kinds submitted
		// (one beyond the device's three, to cover kinds nothing opens).
		var s TenantSpec
		s.Name, s.Weight, s.Tier = "fuzz", weight, Tier(tier)
		for k := gpu.Kind(0); k < 4; k++ {
			if open&(1<<k) != 0 {
				s.Channels = append(s.Channels, k)
			}
			if mix&(1<<k) != 0 {
				s.Mix = append(s.Mix, Req{Size: time.Microsecond, Kind: k})
			}
		}
		if err := s.Validate(); err != nil {
			return
		}
		if w := s.ShareWeight(); !(w > 0) || math.IsInf(w, 0) {
			t.Fatalf("valid spec %+v has share weight %v", s, w)
		}
		if _, err := ParseTier(string(s.Tier)); err != nil {
			t.Fatalf("valid spec %+v has tier error %v", s, err)
		}
		for _, r := range s.Mix {
			if !slices.Contains(s.ChannelKinds(), r.Kind) {
				t.Fatalf("valid spec %+v submits %v on no open channel", s, r.Kind)
			}
		}
	})
}
