package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// Tier is a tenant's service-level contract class. It drives the
// front-door admission thresholds (internal/traffic): under overload
// best-effort traffic is shed first and premium last. It is orthogonal
// to Weight, which sets the tenant's share of device time once
// admitted; a production contract typically raises both together.
type Tier string

// The service tiers, from most to least protected.
const (
	// TierPremium is shed last: its admission bound sits above the
	// standard tier's, so premium arrivals are still accepted while
	// standard traffic is already being refused.
	TierPremium Tier = "premium"
	// TierStandard is the default contract and the reference bound —
	// the tier every pre-tier tenant implicitly held.
	TierStandard Tier = "standard"
	// TierBestEffort is shed first: batch scrapers and background fill
	// whose arrivals are refused as soon as the fleet begins to queue.
	TierBestEffort Tier = "best-effort"
)

// Tiers lists the service tiers in protection order (most protected
// first).
func Tiers() []Tier { return []Tier{TierPremium, TierStandard, TierBestEffort} }

// ParseTier resolves a tier name (as typed on a command line); the
// empty string is the standard tier. Unknown names are an error listing
// the valid tiers.
func ParseTier(name string) (Tier, error) {
	switch Tier(name) {
	case "", TierStandard:
		return TierStandard, nil
	case TierPremium:
		return TierPremium, nil
	case TierBestEffort:
		return TierBestEffort, nil
	default:
		return "", fmt.Errorf("workload: unknown tier %q (valid: premium, standard, best-effort)", name)
	}
}

// Normalize maps the zero value to the standard tier, so specs that
// never mention tiers keep their pre-tier behavior.
func (t Tier) Normalize() Tier {
	if t == "" {
		return TierStandard
	}
	return t
}

// TenantSpec describes one fleet tenant: a request mix (Spec) plus the
// locality state the placement layer manages and the contract terms
// (weight, tier) the sharing layers enforce.
type TenantSpec struct {
	Spec

	// WorkingSet is the device time needed to rebuild the tenant's warm
	// state (data migration plus re-initialization kernels) when a
	// round is placed on a device other than the previous round's. Zero
	// means the tenant is stateless and migrates for free.
	WorkingSet sim.Duration

	// Jitter is the per-round CPU-time jitter fraction. Identical
	// tenants with zero jitter run in deterministic lockstep, which no
	// real tenant population does — and which would let stateless
	// round-robin placement accidentally behave as if it were sticky.
	Jitter float64

	// Weight is the tenant's fair-share weight: under contention the
	// fair-queueing schedulers grant device time in proportion to it.
	// Zero means the default weight of 1 (equal shares). Negative or
	// non-finite weights are invalid — Validate rejects them rather than
	// letting the ledgers silently clamp them to 1.
	Weight float64

	// Tier is the tenant's admission service tier; the zero value is
	// TierStandard.
	Tier Tier

	// Org is the organization (sibling group) the tenant belongs to in
	// hierarchical share policies: org weights split the fleet first,
	// then tenant weights split within each org. Empty means the tenant
	// stands alone at the top level (its own implicit weight-1 org), so
	// flat-weight populations are unchanged.
	Org string
}

// ShareWeight returns the tenant's effective weight (1 when unset).
func (s TenantSpec) ShareWeight() float64 {
	if s.Weight <= 0 {
		return 1
	}
	return s.Weight
}

// Validate rejects malformed contract terms before any ledger sees
// them. Weight zero is the documented "unset → 1" default and stays
// legal; negative or non-finite weights are the specs core.PerWeight
// used to clamp to 1 silently — under hierarchical composition that
// clamp would quietly rewrite an org's whole subtree, so they are now
// an error at spec time. Unknown tiers are rejected the same way, and
// so is a Mix request of a kind the spec's Channels do not open.
func (s TenantSpec) Validate() error {
	if s.Weight < 0 || math.IsNaN(s.Weight) || math.IsInf(s.Weight, 0) {
		return fmt.Errorf("workload: tenant %q has invalid weight %v (must be finite and non-negative; 0 means default 1)",
			s.Name, s.Weight)
	}
	if _, err := ParseTier(string(s.Tier)); err != nil {
		return fmt.Errorf("workload: tenant %q: %w", s.Name, err)
	}
	return s.checkKinds()
}

// OpenLoopTenant returns a TenantSpec shaped for the open-loop serving
// layer (internal/traffic): requests arrive from an arrival process
// rather than a round loop, so the spec carries no CPU think time and a
// single-request mix of the given service size. WorkingSet is the usual
// warm-state reconstruction cost a migrated request pays first.
func OpenLoopTenant(name string, size, workingSet sim.Duration) TenantSpec {
	return TenantSpec{
		Spec: Spec{
			Name:         name,
			Area:         "Serving",
			Mix:          []Req{{Size: size, Kind: gpu.Compute}},
			PaperRoundUS: float64(size) / float64(time.Microsecond),
			PaperReqUS:   float64(size) / float64(time.Microsecond),
		},
		WorkingSet: workingSet,
	}
}

// TenantsPerDevice is how many tenants FleetPopulation launches per
// device — enough that every device stays saturated even under placement
// skew.
const TenantsPerDevice = 3

// FleetMixes lists the tenant mixes FleetPopulation understands, in
// presentation order.
func FleetMixes() []string { return []string{"uniform", "mixed"} }

// FleetPopulation returns a tenant population sized to saturate the
// given number of devices (TenantsPerDevice each, so 2–8 devices get
// 6–24 tenants):
//
//   - "uniform": identical saturating medium-request tenants with a
//     working set several rounds large — the cleanest fairness
//     measurement, and the mix where placement locality matters most.
//   - "mixed": per device, one heavy large-request tenant, one light
//     small-request tenant, and one bursty tenant that sleeps half of
//     every cycle, with working sets scaled to their footprints.
//
// Unknown mixes panic: the mix set is a fixed part of the experiment
// grid, not user input.
func FleetPopulation(devices int, mix string) []TenantSpec {
	const us = time.Microsecond
	var out []TenantSpec
	switch mix {
	case "uniform":
		for i := 0; i < devices*TenantsPerDevice; i++ {
			s := Throttle(300*us, 0)
			s.Name = fmt.Sprintf("uni-%02d", i)
			out = append(out, TenantSpec{Spec: s, WorkingSet: 1500 * us, Jitter: 0.2})
		}
	case "mixed":
		for i := 0; i < devices; i++ {
			heavy := Throttle(850*us, 0)
			heavy.Name = fmt.Sprintf("heavy-%02d", i)
			out = append(out, TenantSpec{Spec: heavy, WorkingSet: 2000 * us, Jitter: 0.2})

			light := Throttle(80*us, 0)
			light.Name = fmt.Sprintf("light-%02d", i)
			out = append(out, TenantSpec{Spec: light, WorkingSet: 600 * us, Jitter: 0.2})

			bursty := Throttle(200*us, 0.5)
			bursty.Name = fmt.Sprintf("bursty-%02d", i)
			out = append(out, TenantSpec{Spec: bursty, WorkingSet: 400 * us, Jitter: 0.2})
		}
	default:
		panic(fmt.Sprintf("workload: unknown fleet mix %q (valid: uniform, mixed)", mix))
	}
	return out
}
