package platforms_test

import (
	"testing"
	"time"

	"vcomputebench/internal/expected"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// TestProfilesValidate checks every shipped platform profile passes the hw
// validation the device constructor applies — a calibration edit that pushes
// an efficiency out of (0, 1] must fail here, not at first experiment run.
func TestProfilesValidate(t *testing.T) {
	for _, p := range platforms.All() {
		if err := p.Profile.Validate(); err != nil {
			t.Errorf("%s: %v", p.ID, err)
		}
		if _, err := p.NewDevice(); err != nil {
			t.Errorf("%s: NewDevice: %v", p.ID, err)
		}
	}
}

// TestDesktopDriverStructure pins the structural calibration facts the paper
// explains Fig. 2 with: Vulkan records command buffers instead of paying a
// per-iteration launch overhead, and only the CUDA/OpenCL compilers apply the
// bfs local-memory promotion (§V-A2).
func TestDesktopDriverStructure(t *testing.T) {
	for _, p := range platforms.Desktop() {
		vk, ok := p.Profile.Driver(hw.APIVulkan)
		if !ok {
			t.Fatalf("%s: no Vulkan driver", p.ID)
		}
		if vk.KernelLaunchOverhead != 0 {
			t.Errorf("%s: Vulkan has a per-launch overhead (%v); its cost model is record+submit", p.ID, vk.KernelLaunchOverhead)
		}
		if vk.LocalMemoryAutoOpt {
			t.Errorf("%s: Vulkan applies local-memory promotion; the paper found only the other compilers do", p.ID)
		}
		for _, api := range []hw.API{hw.APIOpenCL, hw.APICUDA} {
			drv, ok := p.Profile.Driver(api)
			if !ok {
				continue
			}
			if drv.KernelLaunchOverhead <= 0 || drv.SyncLatency <= 0 {
				t.Errorf("%s/%s: iterative launch costs missing (launch %v, sync %v)",
					p.ID, api, drv.KernelLaunchOverhead, drv.SyncLatency)
			}
			if !drv.LocalMemoryAutoOpt || drv.LocalMemoryOptFactor <= 0 || drv.LocalMemoryOptFactor >= 1 {
				t.Errorf("%s/%s: local-memory promotion miscalibrated (opt %v, factor %v)",
					p.ID, api, drv.LocalMemoryAutoOpt, drv.LocalMemoryOptFactor)
			}
		}
	}
}

// TestQuirksMatchExpectedExclusions checks the platform quirks and the
// Table IV exclusions pinned in internal/expected describe the same gaps, so
// the two definitions cannot drift apart.
func TestQuirksMatchExpectedExclusions(t *testing.T) {
	figureOf := map[string]string{
		platforms.IDPowerVR:   "fig4a",
		platforms.IDAdreno506: "fig4b",
	}
	var fromQuirks []expected.Exclusion
	for _, p := range platforms.All() {
		fig, ok := figureOf[p.ID]
		if !ok {
			if len(p.Quirks) != 0 {
				t.Errorf("%s: has quirks but no Table IV figure mapping", p.ID)
			}
			continue
		}
		for _, q := range p.Quirks {
			fromQuirks = append(fromQuirks, expected.Exclusion{
				Experiment: fig, Benchmark: q.Benchmark, API: q.API.String(),
			})
		}
	}
	want := expected.Exclusions()
	match := func(e expected.Exclusion, list []expected.Exclusion) bool {
		for _, o := range list {
			if o.Experiment == e.Experiment && o.Benchmark == e.Benchmark && o.API == e.API {
				return true
			}
		}
		return false
	}
	for _, e := range want {
		if !match(e, fromQuirks) {
			t.Errorf("expected exclusion %+v has no platform quirk", e)
		}
	}
	for _, q := range fromQuirks {
		if !match(q, want) {
			t.Errorf("platform quirk %+v not pinned in expected.Exclusions", q)
		}
	}
}

// TestClone checks the clone shares nothing mutable with the
// original.
func TestClone(t *testing.T) {
	p := platforms.Adreno506()
	c := p.Clone()
	drv := c.Profile.Drivers[hw.APIOpenCL]
	drv.SyncLatency = 123 * time.Microsecond
	c.Profile.Drivers[hw.APIOpenCL] = drv
	if p.Profile.Drivers[hw.APIOpenCL].SyncLatency == 123*time.Microsecond {
		t.Fatal("clone shares the driver map with the original")
	}
	if len(c.Quirks) != len(p.Quirks) {
		t.Fatalf("clone lost quirks: %d vs %d", len(c.Quirks), len(p.Quirks))
	}
	c.Quirks[0].Benchmark = "mutated"
	if p.Quirks[0].Benchmark == "mutated" {
		t.Fatal("clone shares the quirk slice with the original")
	}
}
