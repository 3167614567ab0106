package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
)

// storeTestRegistry returns a fresh registry with the programs the synthetic
// snapshots below reference (decoding re-binds programs from it).
func storeTestRegistry(t testing.TB) *kernels.Registry {
	t.Helper()
	reg := kernels.NewRegistry()
	for _, name := range []string{"store_test_kernel", "store_test_kernel2"} {
		if err := reg.Register(&kernels.Program{
			Name:      name,
			LocalSize: kernels.Dim3{X: 64, Y: 1, Z: 1},
			Bindings:  2,
			Fn:        func(wg *kernels.Workgroup) {},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// storeTestSnapshot builds a fully-populated snapshot, the way the runner
// would from a real execution, around a synthetic trace exercising every
// event kind, every reading kind, knob-tagged and fixed costs, every
// persisted counter and both registered programs.
func storeTestSnapshot(t testing.TB, reg *kernels.Registry) *Snapshot {
	t.Helper()
	k1, err := reg.Lookup("store_test_kernel")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := reg.Lookup("store_test_kernel2")
	if err != nil {
		t.Fatal(err)
	}
	counters := kernels.Counters{
		Invocations: 1024, Workgroups: 16, ALUOps: 4096,
		GlobalLoads: 2048, GlobalStores: 1024,
		GlobalLoadBytes: 8192, GlobalStoreBytes: 4096,
		LocalOps: 128, LocalBytes: 512, SharedBytesPerGroup: 256,
		Barriers: 16, SampledUsefulBytes: 8192, SampledTransactionBytes: 12288,
	}
	tr := &hw.Trace{
		API: hw.APIVulkan,
		Events: []hw.TraceEvent{
			{Kind: hw.EvSpend, Cost: hw.KnobCost(hw.KnobKernelLaunch).Plus(hw.FixedCost(3 * time.Microsecond))},
			{Kind: hw.EvMark},
			{Kind: hw.EvKernel, Queue: 0, Prog: k1, Counters: counters, Cost: hw.KnobCostN(hw.KnobSubmit, 2)},
			{Kind: hw.EvTransfer, Queue: 1, Bytes: 1 << 20},
			{Kind: hw.EvOccupy, Queue: 2, Cost: hw.FixedCost(5 * time.Microsecond)},
			{Kind: hw.EvKernel, Queue: 0, Prog: k2, Counters: counters},
			{Kind: hw.EvWait, Ref: 5},
			{Kind: hw.EvWait, Ref: -1},
			{Kind: hw.EvMark},
		},
		Readings: []hw.Reading{
			{Kind: hw.ReadHostMark, A: 8, Value: 90 * time.Microsecond},
			{Kind: hw.ReadMarkDiff, A: 1, B: 8, Value: 80 * time.Microsecond},
			{Kind: hw.ReadSpanSum, Refs: []int32{2, 5}, Value: 60 * time.Microsecond},
			{Kind: hw.ReadEndDiff, A: -1, B: 5, Value: 70 * time.Microsecond},
		},
	}
	return &Snapshot{
		trace:           tr,
		fingerprint:     "test-fingerprint",
		benchmark:       "storetest",
		workload:        "small",
		reps:            3,
		kernelReading:   1,
		totalReading:    0,
		dispatches:      2,
		checksum:        123.5,
		extras:          map[string]float64{"transfer_us": 12.5},
		throughputBytes: map[string]float64{"kernel": 6144},
	}
}

// corruptionSweep calls fn with every truncation of data, then with data
// with each byte flipped in turn.
func corruptionSweep(data []byte, fn func(mut []byte, truncated bool)) {
	for n := 0; n < len(data); n++ {
		fn(data[:n], true)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		fn(mut, false)
	}
}

// withReps rewrites the repetition count of an encoded snapshot, keeping
// every other byte: the count follows the magic, the version and the four
// header strings.
func withReps(t testing.TB, s *Snapshot, data []byte, reps uint64) []byte {
	t.Helper()
	head := append([]byte(nil), snapshotMagic[:]...)
	head = binary.AppendUvarint(head, SnapshotCodecVersion)
	for _, str := range []string{s.fingerprint, s.benchmark, s.workload, string(s.trace.API)} {
		head = appendString(head, str)
	}
	old := binary.AppendUvarint(nil, uint64(s.reps))
	if !bytes.Equal(data[len(head):len(head)+len(old)], old) {
		t.Fatal("repetition count is not where the layout puts it")
	}
	out := binary.AppendUvarint(append([]byte(nil), head...), reps)
	return append(out, data[len(head)+len(old):]...)
}

// TestSnapshotCodecRoundTrip pins that decode(encode(s)) reproduces the
// snapshot exactly, including the trace with programs re-bound to the
// registry, and that encoding is deterministic.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	reg := storeTestRegistry(t)
	snap := storeTestSnapshot(t, reg)
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: map iteration order must not leak into the bytes.
	again, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data, again) {
		t.Fatal("two encodings of the same snapshot differ")
	}
	got, err := DecodeSnapshot(data, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("decoded snapshot differs:\n  want %+v\n  got  %+v", snap, got)
	}
}

// TestSnapshotCodecRejectsCorruption: every truncation errors, every byte
// flip decodes or errors but never panics.
func TestSnapshotCodecRejectsCorruption(t *testing.T) {
	reg := storeTestRegistry(t)
	data, err := EncodeSnapshot(storeTestSnapshot(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	corruptionSweep(data, func(mut []byte, truncated bool) {
		if _, err := DecodeSnapshot(mut, reg); truncated && err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", len(mut), len(data))
		}
	})
}

// TestSnapshotCodecRejectsHugeReps: a stream that is well-formed except for
// an absurd repetition count must fail decoding. Replay builds one sample
// per repetition, so accepting it would kill the process with an
// out-of-memory fatal error that no recover catches.
func TestSnapshotCodecRejectsHugeReps(t *testing.T) {
	reg := storeTestRegistry(t)
	snap := storeTestSnapshot(t, reg)
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(withReps(t, snap, data, 1<<45), reg); err == nil {
		t.Fatal("a snapshot with 2^45 repetitions decoded")
	}
	if _, err := DecodeSnapshot(withReps(t, snap, data, 0), reg); err == nil {
		t.Fatal("a snapshot with 0 repetitions decoded")
	}
	// The bound is symmetric: what encodes decodes, and nothing beyond it
	// encodes.
	snap.reps = maxSnapshotReps
	if data, err = EncodeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(data, reg); err != nil {
		t.Fatalf("a snapshot at the repetition bound failed to decode: %v", err)
	}
	snap.reps++
	if _, err := EncodeSnapshot(snap); err == nil {
		t.Fatal("a snapshot beyond the repetition bound encoded")
	}
}

// TestTraceCodecRoundTrip pins the trace section of the stream: decoding
// reproduces every event and reading, re-binds programs to the registry's
// entries (not copies: replay depends on registry identity), and the decoded
// snapshot replays bit-identically to the original.
func TestTraceCodecRoundTrip(t *testing.T) {
	reg := storeTestRegistry(t)
	p := platforms.GTX1050Ti()
	snap := storeTestSnapshot(t, reg)
	snap.fingerprint = p.Profile.ExecutionFingerprint()
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.trace, got.trace) {
		t.Fatalf("decoded trace differs:\n  want %+v\n  got  %+v", snap.trace, got.trace)
	}
	if got.trace.Events[2].Prog != snap.trace.Events[2].Prog || got.trace.Events[5].Prog != snap.trace.Events[5].Prog {
		t.Fatal("decoded programs are not the registry entries")
	}

	want, err := snap.trace.Replay(&p.Profile)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.trace.Replay(&p.Profile)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.trace.Readings {
		w, err := want.Reading(i)
		if err != nil {
			t.Fatal(err)
		}
		h, err := have.Reading(i)
		if err != nil {
			t.Fatal(err)
		}
		if w != h {
			t.Fatalf("reading %d replays to %v on the original and %v on the decoded trace", i, w, h)
		}
	}
	wantRes, err := snap.Replay(p)
	if err != nil {
		t.Fatal(err)
	}
	haveRes, err := got.Replay(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRes, haveRes) {
		t.Fatalf("decoded snapshot replays differently:\n  want %+v\n  got  %+v", wantRes, haveRes)
	}
}

// TestTraceCodecRejectsCorruption: a stream whose bytes are well-formed but
// whose trace is not replayable — an unknown event or reading kind, a queue
// beyond the slot bound, a reference to a missing event — fails decoding,
// so Replay never sees it.
func TestTraceCodecRejectsCorruption(t *testing.T) {
	reg := storeTestRegistry(t)
	for name, mutate := range map[string]func(tr *hw.Trace){
		"event kind":   func(tr *hw.Trace) { tr.Events[0].Kind = hw.EvMark + 1 },
		"queue slot":   func(tr *hw.Trace) { tr.Events[3].Queue = 200 },
		"wait ref":     func(tr *hw.Trace) { tr.Events[6].Ref = int32(len(tr.Events)) },
		"reading kind": func(tr *hw.Trace) { tr.Readings[2].Kind = hw.ReadEndDiff + 1 },
		"reading ref":  func(tr *hw.Trace) { tr.Readings[2].Refs = []int32{2, 99} },
	} {
		snap := storeTestSnapshot(t, reg)
		mutate(snap.trace)
		data, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := DecodeSnapshot(data, reg); err == nil {
			t.Errorf("%s: an unreplayable trace decoded", name)
		}
	}
}

// TestTraceCodecRejectsUnknownProgram pins the stable-identity contract: a
// trace referencing a kernel the registry no longer has fails decoding (the
// store treats that as a miss and re-executes).
func TestTraceCodecRejectsUnknownProgram(t *testing.T) {
	reg := storeTestRegistry(t)
	data, err := EncodeSnapshot(storeTestSnapshot(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(data, kernels.NewRegistry()); err == nil {
		t.Fatal("decoding against an empty registry succeeded; programs are not being re-bound")
	}
}

// TestTraceCodecRejectsNilProgram: kernel events without a registry name
// cannot be persisted and must be rejected at encode time.
func TestTraceCodecRejectsNilProgram(t *testing.T) {
	snap := storeTestSnapshot(t, storeTestRegistry(t))
	snap.trace.Events[2].Prog = nil
	if _, err := EncodeSnapshot(snap); err == nil {
		t.Fatal("encoding a kernel event without a program succeeded")
	}
	snap.trace.Events[2].Prog = &kernels.Program{}
	if _, err := EncodeSnapshot(snap); err == nil {
		t.Fatal("encoding a kernel event with an unnamed program succeeded")
	}
}

// FuzzDecodeSnapshot: no input crashes the decoder, and whatever decodes
// replays without crashing under the platform whose execution fingerprint it
// carries.
func FuzzDecodeSnapshot(f *testing.F) {
	reg := storeTestRegistry(f)
	all := platforms.All()
	fingerprints := make([]string, len(all))
	for i, p := range all {
		fingerprints[i] = p.Profile.ExecutionFingerprint()
	}
	snap := storeTestSnapshot(f, reg)
	snap.fingerprint = fingerprints[0]
	data, err := EncodeSnapshot(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(withReps(f, snap, data, 1<<45))
	corruptionSweep(data, func(mut []byte, _ bool) { f.Add(mut) })
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data, reg)
		if err != nil {
			return
		}
		for i, fp := range fingerprints {
			if fp == s.fingerprint {
				_, _ = s.Replay(all[i]) // errors are fine; panics are not
			}
		}
	})
}
