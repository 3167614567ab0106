package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
)

// This file is the versioned binary codec for Snapshot: everything the
// execute/replay seam captured for one cell — the Result bindings, the
// timing-independent extras and the symbolic timing trace — as one
// self-contained byte stream the persistent store can write to disk and
// re-bind in a later process. Kernel programs are encoded by their stable
// registry identity (Program.Name) and re-bound from the kernels registry at
// decode time; hw decides whether the decoded trace is replayable
// ((*hw.Trace).Validate). A program that no longer exists, a stream written by
// a different codec version, or a mangled stream fails decoding (never
// panics), which stores degrade to a miss and re-execute.
//
// SnapshotCodecVersion must be bumped whenever the layout changes: the
// header, TraceEvent/Reading/Cost fields, the Knob set or the persisted
// kernels.Counters fields. As a second line of defence the stream
// self-describes its knob and counter counts, so a forgotten bump still fails
// decoding instead of silently misreading; and as the first line, the store
// keys entries by the code-version fingerprint over these packages, so stale
// streams are normally never even opened.

// SnapshotCodecVersion is the current wire-format version of EncodeSnapshot.
const SnapshotCodecVersion = 2

var snapshotMagic = [4]byte{'V', 'C', 'S', 'N'}

// knobCount is the number of driver knobs a recorded Cost counts.
const knobCount = uint64(len(hw.Cost{}.Counts))

// maxSnapshotReps bounds the repetition count a stream may carry. Replay
// builds per-repetition samples, so a corrupt count would otherwise exhaust
// memory — a fatal error no recover can catch. Encode enforces the same
// bound, so every stream this build writes it can read; a cell measured with
// more repetitions still replays from memory, it is just not persisted.
const maxSnapshotReps = 1 << 16

// EncodeSnapshot serialises a snapshot. Map-valued fields are written in
// sorted key order, so identical snapshots encode to identical bytes. Every
// kernel event must carry a program with a non-empty registry name; anything
// else cannot be re-bound at decode time and is rejected here, before bytes
// ever reach a store.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if s == nil || s.trace == nil {
		return nil, fmt.Errorf("core: encode of nil or trace-less snapshot")
	}
	if s.reps <= 0 || s.reps > maxSnapshotReps {
		return nil, fmt.Errorf("core: snapshot repetition count %d outside [1, %d]", s.reps, maxSnapshotReps)
	}
	b := append([]byte(nil), snapshotMagic[:]...)
	b = binary.AppendUvarint(b, SnapshotCodecVersion)
	b = appendString(b, s.fingerprint)
	b = appendString(b, s.benchmark)
	b = appendString(b, s.workload)
	b = appendString(b, string(s.trace.API))
	b = binary.AppendUvarint(b, uint64(s.reps))
	b = binary.AppendUvarint(b, uint64(s.kernelReading))
	b = binary.AppendUvarint(b, uint64(s.totalReading))
	b = binary.AppendVarint(b, int64(s.dispatches))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.checksum))
	b = appendFloatMap(b, s.extras)
	b = appendFloatMap(b, s.throughputBytes)
	b = binary.AppendUvarint(b, knobCount)
	b = binary.AppendUvarint(b, uint64(kernels.PersistedCounters()))

	t := s.trace
	b = binary.AppendUvarint(b, uint64(len(t.Events)))
	for i := range t.Events {
		ev := &t.Events[i]
		b = append(b, byte(ev.Kind), ev.Queue)
		b = binary.AppendVarint(b, int64(ev.Ref))
		b = binary.AppendVarint(b, ev.Bytes)
		if ev.Kind == hw.EvKernel {
			if ev.Prog == nil || ev.Prog.Name == "" {
				return nil, fmt.Errorf("core: event %d: kernel event without a registry-named program", i)
			}
			b = appendString(b, ev.Prog.Name)
			for j := 0; j < kernels.PersistedCounters(); j++ {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*ev.Counters.Persisted(j)))
			}
		}
		b = binary.AppendVarint(b, int64(ev.Cost.Fixed))
		for _, n := range ev.Cost.Counts {
			b = binary.AppendVarint(b, int64(n))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(t.Readings)))
	for i := range t.Readings {
		r := &t.Readings[i]
		b = append(b, byte(r.Kind))
		b = binary.AppendVarint(b, int64(r.A))
		b = binary.AppendVarint(b, int64(r.B))
		b = binary.AppendUvarint(b, uint64(len(r.Refs)))
		for _, ref := range r.Refs {
			b = binary.AppendVarint(b, int64(ref))
		}
		b = binary.AppendVarint(b, int64(r.Value))
	}
	return b, nil
}

// DecodeSnapshot deserialises a snapshot, re-binding the trace's kernel
// programs by name from the registry (kernels.Default when reg is nil).
// Corrupt, truncated or version-mismatched input returns an error — never a
// panic and never a half-decoded snapshot. The decoded trace must pass
// (*hw.Trace).Validate and the snapshot's reading bindings are bounds-checked
// against it, so a hostile or bit-rotted stream cannot crash Replay.
func DecodeSnapshot(data []byte, reg *kernels.Registry) (*Snapshot, error) {
	if reg == nil {
		reg = kernels.Default
	}
	d := &snapReader{data: data}
	var magic [4]byte
	copy(magic[:], d.bytes(4))
	if d.err == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("core: snapshot stream has wrong magic %q", magic)
	}
	if v := d.uvarint(); d.err == nil && v != SnapshotCodecVersion {
		return nil, fmt.Errorf("core: snapshot codec version %d, this build reads %d", v, SnapshotCodecVersion)
	}
	s := &Snapshot{}
	tr := &hw.Trace{}
	s.fingerprint = d.str()
	s.benchmark = d.str()
	s.workload = d.str()
	tr.API = hw.API(d.str())
	reps := d.uvarint()
	kernelReading, totalReading := d.uvarint(), d.uvarint()
	s.dispatches = int(d.varint())
	s.checksum = d.f64()
	s.extras = d.floatMap()
	s.throughputBytes = d.floatMap()
	if d.err == nil && (reps == 0 || reps > maxSnapshotReps) {
		return nil, fmt.Errorf("core: snapshot repetition count %d outside [1, %d]", reps, maxSnapshotReps)
	}
	s.reps = int(reps)
	if kc := d.uvarint(); d.err == nil && kc != knobCount {
		return nil, fmt.Errorf("core: snapshot recorded with %d driver knobs, this build has %d", kc, knobCount)
	}
	if cc := d.uvarint(); d.err == nil && cc != uint64(kernels.PersistedCounters()) {
		return nil, fmt.Errorf("core: snapshot recorded with %d counter fields, this build has %d", cc, kernels.PersistedCounters())
	}

	nEvents := d.length("events")
	tr.Events = make([]hw.TraceEvent, 0, nEvents)
	for i := 0; i < nEvents && d.err == nil; i++ {
		tr.Events = append(tr.Events, hw.TraceEvent{})
		ev := &tr.Events[i]
		ev.Kind = hw.EventKind(d.u8())
		ev.Queue = d.u8()
		ev.Ref = d.i32()
		ev.Bytes = d.varint()
		if ev.Kind == hw.EvKernel {
			name := d.str()
			if d.err == nil {
				prog, err := reg.Lookup(name)
				if err != nil {
					return nil, fmt.Errorf("core: event %d: %w (the program registry no longer has this kernel; the snapshot is stale)", i, err)
				}
				ev.Prog = prog
			}
			for j := 0; j < kernels.PersistedCounters(); j++ {
				*ev.Counters.Persisted(j) = d.f64()
			}
		}
		ev.Cost.Fixed = time.Duration(d.varint())
		for k := range ev.Cost.Counts {
			ev.Cost.Counts[k] = d.i32()
		}
	}
	nReadings := d.length("readings")
	tr.Readings = make([]hw.Reading, 0, nReadings)
	for i := 0; i < nReadings && d.err == nil; i++ {
		var r hw.Reading
		r.Kind = hw.ReadingKind(d.u8())
		r.A = d.i32()
		r.B = d.i32()
		if nRefs := d.length("reading refs"); nRefs > 0 {
			r.Refs = make([]int32, 0, nRefs)
			for j := 0; j < nRefs && d.err == nil; j++ {
				r.Refs = append(r.Refs, d.i32())
			}
		}
		r.Value = time.Duration(d.varint())
		tr.Readings = append(tr.Readings, r)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("core: %d trailing bytes after snapshot stream", len(data)-d.off)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if n := uint64(len(tr.Readings)); kernelReading >= n || totalReading >= n {
		return nil, fmt.Errorf("core: snapshot binds readings %d/%d of a trace with %d",
			kernelReading, totalReading, n)
	}
	s.kernelReading, s.totalReading = int(kernelReading), int(totalReading)
	s.trace = tr
	return s, nil
}

// appendString writes a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendFloatMap writes a map in sorted key order.
func appendFloatMap(b []byte, m map[string]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = appendString(b, k)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m[k]))
	}
	return b
}

// snapReader is a sticky-error cursor over an encoded stream — a snapshot or
// a store entry envelope. After any failure every subsequent read is a no-op
// returning the zero value, and the caller checks err once.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (d *snapReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: "+format, args...)
	}
}

func (d *snapReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.fail("truncated stream: need %d bytes at offset %d of %d", n, d.off, len(d.data))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *snapReader) u8() byte {
	if b := d.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *snapReader) f64() float64 {
	if b := d.bytes(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (d *snapReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *snapReader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *snapReader) i32() int32 {
	v := d.varint()
	if d.err == nil && (v < math.MinInt32 || v > math.MaxInt32) {
		d.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// length reads a collection size bounded by the remaining bytes, so a
// corrupt stream cannot trigger a huge allocation before the truncation
// check.
func (d *snapReader) length(what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.data)-d.off) {
		d.fail("%s count %d exceeds the %d remaining bytes", what, v, len(d.data)-d.off)
		return 0
	}
	return int(v)
}

func (d *snapReader) str() string {
	n := d.length("string")
	b := d.bytes(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *snapReader) floatMap() map[string]float64 {
	n := d.length("map")
	if n == 0 || d.err != nil {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		v := d.f64()
		if d.err == nil {
			m[k] = v
		}
	}
	if d.err != nil {
		return nil
	}
	return m
}
