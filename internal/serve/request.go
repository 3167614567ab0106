package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// SimulateRequest is the wire shape of POST /v1/simulate: one measurement
// cell, plus optional timing-only DriverProfile knob overrides for what-if
// queries. Platform, benchmark and API use the same lowercase identifiers as
// the CLI (-platform, -bench, api= fault filters); Workload defaults to the
// first workload of the platform's device class.
type SimulateRequest struct {
	Platform  string `json:"platform"`
	Benchmark string `json:"benchmark"`
	API       string `json:"api"`
	Workload  string `json:"workload,omitempty"`
	// DriverKnobs overrides timing-only DriverProfile fields of the requested
	// API's driver (see KnobNames for the names). Structural fields —
	// anything in the execution fingerprint — are not overridable: the whole
	// point is that a knob change replays the same stored snapshot instead of
	// forcing an execution.
	DriverKnobs map[string]float64 `json:"driver_knobs,omitempty"`
}

// requestError marks a malformed or unresolvable request; the handler maps
// it to 400.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// simCell is a resolved simulate request: the (possibly knob-overridden,
// always cloned) platform, the registry benchmark, and the canonical flight
// key identical requests collapse under.
type simCell struct {
	p        *platforms.Platform
	bench    core.Benchmark
	api      hw.API
	workload core.Workload
	knobs    []knob // applied overrides, sorted by name (report notes)
	key      string // canonical identity: flight key
	storeKey core.SnapshotKey
}

type knob struct {
	name  string
	value float64
}

// KnobNames lists the accepted driver_knobs keys, sorted (documentation and
// error messages): the wire names of the timing DriverProfile fields declared
// in internal/hw. Timing fields stay out of hw.Profile.ExecutionFingerprint,
// so an override replays the stored snapshot instead of forcing an execution.
func KnobNames() []string {
	var names []string
	for _, f := range hw.DriverFields() {
		if f.Kind == hw.Timing && f.Key != "" {
			names = append(names, f.Key)
		}
	}
	sort.Strings(names)
	return names
}

// resolve validates the request against the registries and builds the cell:
// platform (cloned, knobs applied, driver re-validated), benchmark, API,
// workload, and the canonical key.
func (s *Server) resolve(req *SimulateRequest) (*simCell, error) {
	p, err := platforms.ByID(req.Platform)
	if err != nil {
		return nil, badRequest("unknown platform %q", req.Platform)
	}
	b, err := core.Get(req.Benchmark)
	if err != nil {
		return nil, badRequest("unknown benchmark %q", req.Benchmark)
	}
	api := hw.API(strings.ToLower(req.API))
	if !api.Valid() {
		return nil, badRequest("unknown api %q (want vulkan, cuda or opencl)", req.API)
	}
	available := b.Workloads(p.Profile.Class)
	if len(available) == 0 {
		return nil, badRequest("benchmark %q has no workloads for device class %q", req.Benchmark, p.Profile.Class)
	}
	w := available[0]
	if req.Workload != "" {
		found := false
		for _, cand := range available {
			if cand.Label == req.Workload {
				w = cand
				found = true
				break
			}
		}
		if !found {
			labels := make([]string, len(available))
			for i, cand := range available {
				labels[i] = cand.Label
			}
			return nil, badRequest("benchmark %q has no workload %q on %s (have %s)",
				req.Benchmark, req.Workload, p.ID, strings.Join(labels, ", "))
		}
	}

	cell := &simCell{p: p, bench: b, api: api, workload: w}
	if len(req.DriverKnobs) > 0 {
		names := make([]string, 0, len(req.DriverKnobs))
		for name := range req.DriverKnobs {
			names = append(names, name)
		}
		sort.Strings(names)
		clone := p.Clone()
		drv, ok := clone.Profile.Drivers[api]
		if !ok {
			return nil, badRequest("platform %s has no %s driver to override", p.ID, api)
		}
		for _, name := range names {
			f, ok := hw.WireKnob(name)
			if !ok {
				return nil, badRequest("unknown driver knob %q (have %s)", name, strings.Join(KnobNames(), ", "))
			}
			v := req.DriverKnobs[name]
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, badRequest("driver knob %q: value %v must be finite and non-negative", name, v)
			}
			if f.IsDuration() {
				// float64(math.MaxInt64) is 2^63: anything at or above it
				// would wrap negative in the conversion.
				if v >= math.MaxInt64 {
					return nil, badRequest("driver knob %q: value %v ns overflows a duration", name, v)
				}
				f.SetDuration(&drv, time.Duration(v))
			} else {
				f.SetFloat(&drv, v)
			}
			cell.knobs = append(cell.knobs, knob{name: name, value: v})
		}
		if err := drv.Validate(); err != nil {
			return nil, badRequest("driver knobs leave an invalid %s driver: %v", api, err)
		}
		clone.Profile.Drivers[api] = drv
		cell.p = clone
	}
	cell.key = cell.canonicalKey()
	cell.storeKey = s.runner.CellKey(cell.p, cell.bench, cell.api, cell.workload)
	return cell, nil
}

// canonicalKey is the flight identity of the cell: everything that can change
// the response bytes. Knobs are folded in sorted, so two requests spelling
// the same overrides in different JSON orders collapse onto one flight.
func (c *simCell) canonicalKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%s", c.p.ID, c.bench.Name(), c.api, c.workload.Label)
	for _, kn := range c.knobs {
		fmt.Fprintf(&b, "|%s=%g", kn.name, kn.value)
	}
	return b.String()
}
