package kernels

import (
	"fmt"
	"reflect"
	"unsafe"
)

// Counters accumulates the device-side work observed while executing a
// dispatch. The analytical timing model in internal/hw converts these counts
// into simulated execution time.
//
// Every field is a float64 carrying a `counter:"kind"` tag (see CounterKind):
// Add, Scale and the snapshot codec all loop over the table the tags declare,
// so a new counter is one tagged field, not an edit to each of them.
type Counters struct {
	// Invocations is the number of kernel invocations (work-items) that were
	// functionally executed or accounted for by sampling extrapolation.
	Invocations float64 `counter:"extensive"`
	// Workgroups is the number of workgroups accounted for.
	Workgroups float64 `counter:"extensive"`
	// ALUOps is the number of arithmetic operations reported by the kernel via
	// Invocation.ALU (plus the program's static per-invocation estimate).
	ALUOps float64 `counter:"extensive"`
	// GlobalLoads / GlobalStores count individual global-memory accesses.
	GlobalLoads  float64 `counter:"extensive"`
	GlobalStores float64 `counter:"extensive"`
	// GlobalLoadBytes / GlobalStoreBytes are the useful byte volumes of the
	// above accesses (before coalescing inflation).
	GlobalLoadBytes  float64 `counter:"extensive"`
	GlobalStoreBytes float64 `counter:"extensive"`
	// LocalOps counts shared (workgroup-local) memory accesses reported by the
	// kernel.
	LocalOps float64 `counter:"extensive"`
	// LocalBytes is the byte volume of the above accesses. The dispatch engine
	// records it at the access width the kernel used, so the timing model does
	// not have to assume a word size.
	LocalBytes float64 `counter:"extensive"`
	// SharedBytesPerGroup is the maximum shared memory footprint requested by
	// any workgroup.
	SharedBytesPerGroup float64 `counter:"max"`
	// Barriers counts workgroup barrier executions (per workgroup).
	Barriers float64 `counter:"extensive"`
	// Coalescing statistics gathered from sampled warps: UsefulBytes is the
	// byte volume requested by the sampled accesses and TransactionBytes the
	// byte volume the memory system had to move to satisfy them.
	SampledUsefulBytes      float64 `counter:"sample"`
	SampledTransactionBytes float64 `counter:"sample"`
	// SampleScale is the factor by which functional execution was scaled up to
	// cover the full dispatch (1 when every workgroup was executed).
	SampleScale float64 `counter:"derived"`
}

// GlobalBytes returns the total useful global-memory byte volume.
func (c *Counters) GlobalBytes() float64 { return c.GlobalLoadBytes + c.GlobalStoreBytes }

// CoalescingEfficiency returns the ratio of useful bytes to transferred bytes
// observed on sampled warps, in (0, 1]. When no accesses were sampled it
// returns 1.
func (c *Counters) CoalescingEfficiency() float64 {
	if c.SampledTransactionBytes <= 0 || c.SampledUsefulBytes <= 0 {
		return 1
	}
	eff := c.SampledUsefulBytes / c.SampledTransactionBytes
	if eff > 1 {
		return 1
	}
	return eff
}

// MemoryBound reports whether the dispatch moved more than 4 useful bytes per
// ALU op, a crude arithmetic-intensity classifier used in a few tests.
func (c *Counters) MemoryBound() bool {
	if c.ALUOps <= 0 {
		return c.GlobalBytes() > 0
	}
	return c.GlobalBytes()/c.ALUOps > 4
}

// Add accumulates other into c: extensive and sample counters are summed,
// max counters keep the larger value, derived counters are left alone.
func (c *Counters) Add(other *Counters) {
	for _, off := range summedCounters {
		*c.at(off) += *other.at(off)
	}
	for _, off := range maxedCounters {
		if v := *other.at(off); v > *c.at(off) {
			*c.at(off) = v
		}
	}
}

// Scale multiplies the extensive counters by f. The sampling contract: when
// the dispatch engine executes only every stride-th workgroup, it scales the
// accumulated counters by totalGroups/executedGroups (≥ 1) to extrapolate to
// the full grid; factors in (0, 1) are equally valid for down-scaling (e.g.
// averaging repeated dispatches). Non-positive factors are invalid input and
// are ignored rather than zeroing or negating the counters. Intensive
// quantities are never scaled: the sample counters feed a ratio, and max
// counters are per-workgroup maxima.
func (c *Counters) Scale(f float64) {
	if f <= 0 || f == 1 {
		// f == 1 is the exact-execution fast path; f <= 0 is rejected so a
		// buggy caller cannot silently erase the dispatch's work.
		return
	}
	for _, off := range scaledCounters {
		*c.at(off) *= f
	}
}

// PersistedCounters returns how many counters a recorded trace persists: the
// fields of every kind but DerivedCounter.
func PersistedCounters() int { return len(persistedCounters) }

// Persisted returns a pointer to the i-th persisted counter, 0 <= i <
// PersistedCounters(), so a codec can read and write them without naming
// any field.
func (c *Counters) Persisted(i int) *float64 { return c.at(persistedCounters[i]) }

func (c *Counters) at(off uintptr) *float64 {
	return (*float64)(unsafe.Add(unsafe.Pointer(c), off))
}

func (c *Counters) String() string {
	return fmt.Sprintf("inv=%.0f wg=%.0f alu=%.0f gld=%.0f gst=%.0f bytes=%.0f coalesce=%.2f",
		c.Invocations, c.Workgroups, c.ALUOps, c.GlobalLoads, c.GlobalStores, c.GlobalBytes(), c.CoalescingEfficiency())
}

// CounterKind classifies a Counters field by how it combines, scales and
// persists.
type CounterKind uint8

// Counter kinds. The zero kind marks a field with a missing or unknown
// counter tag, which TestCounterFieldsInSync rejects.
const (
	// ExtensiveCounter grows with the work done: summed, scaled, persisted.
	ExtensiveCounter CounterKind = iota + 1
	// MaxCounter is a per-workgroup maximum: Add keeps the larger value; it
	// is persisted and never scaled.
	MaxCounter
	// SampleCounter is a statistic of the sampled warps feeding a ratio:
	// summed and persisted, never scaled.
	SampleCounter
	// DerivedCounter is recomputed by the dispatch engine: not added, not
	// scaled, not persisted.
	DerivedCounter
)

var counterKindNames = map[string]CounterKind{
	"extensive": ExtensiveCounter,
	"max":       MaxCounter,
	"sample":    SampleCounter,
	"derived":   DerivedCounter,
}

// CounterField is the declaration of one Counters field.
type CounterField struct {
	Name   string
	Kind   CounterKind
	offset uintptr
}

var (
	counterFields = declaredCounters()
	// The offset tables Add, Scale and the codec loop over, in field order.
	summedCounters    = counterOffsets(ExtensiveCounter, SampleCounter)
	maxedCounters     = counterOffsets(MaxCounter)
	scaledCounters    = counterOffsets(ExtensiveCounter)
	persistedCounters = counterOffsets(ExtensiveCounter, MaxCounter, SampleCounter)
)

// declaredCounters reads the counter tags of Counters. Any field that is not
// a float64 is a programming error and panics at init, since the offset
// tables read every field as one.
func declaredCounters() []CounterField {
	t := reflect.TypeOf(Counters{})
	out := make([]CounterField, t.NumField())
	for i := range out {
		sf := t.Field(i)
		if sf.Type.Kind() != reflect.Float64 {
			panic(fmt.Sprintf("kernels: Counters.%s is %s, not float64", sf.Name, sf.Type))
		}
		out[i] = CounterField{Name: sf.Name, Kind: counterKindNames[sf.Tag.Get("counter")], offset: sf.Offset}
	}
	return out
}

func counterOffsets(kinds ...CounterKind) []uintptr {
	var out []uintptr
	for _, f := range counterFields {
		for _, k := range kinds {
			if f.Kind == k {
				out = append(out, f.offset)
			}
		}
	}
	return out
}

// CounterFields returns the declarations of Counters' fields, in field order.
func CounterFields() []CounterField { return append([]CounterField(nil), counterFields...) }
