package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vcomputebench/internal/hw"
)

func storeTestKey(bench string) SnapshotKey {
	return SnapshotKey{
		Platform: "p", Fingerprint: "test-fingerprint", Benchmark: bench,
		Workload: "small", API: hw.APIVulkan, Seed: 42, Reps: 3,
	}
}

// TestDiskStoreRoundTrip pins persistence across store instances — the whole
// point of the disk tier: a second process (simulated by a second OpenDiskStore)
// hits entries the first one wrote.
func TestDiskStoreRoundTrip(t *testing.T) {
	reg := storeTestRegistry(t)
	dir := t.TempDir()
	first, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	key := storeTestKey("storetest")
	snap := storeTestSnapshot(t, reg)

	if _, ok := first.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	first.Put(key, snap)

	second, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := second.Get(key)
	if !ok {
		t.Fatal("fresh store instance missed an entry on disk")
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("persisted snapshot differs:\n  want %+v\n  got  %+v", snap, got)
	}

	st := second.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 0 misses, 1 entry", st)
	}
	if len(st.Tiers) != 1 || st.Tiers[0].Tier != "disk" || st.Tiers[0].Bytes <= 0 {
		t.Fatalf("tier stats = %+v, want one disk tier with positive bytes", st.Tiers)
	}
}

// TestDiskStoreCodeVersionIsolation: entries written under one code version
// are invisible to — and GC-able by — a build with another.
func TestDiskStoreCodeVersionIsolation(t *testing.T) {
	reg := storeTestRegistry(t)
	dir := t.TempDir()
	old, err := OpenDiskStore(dir, "codev-old", reg)
	if err != nil {
		t.Fatal(err)
	}
	key := storeTestKey("storetest")
	old.Put(key, storeTestSnapshot(t, reg))

	cur, err := OpenDiskStore(dir, "codev-new", reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(key); ok {
		t.Fatal("entry written under another code version was served")
	}
	cur.Put(key, storeTestSnapshot(t, reg))

	removed, reclaimed, err := cur.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || reclaimed <= 0 {
		t.Fatalf("GC removed %d files (%d bytes), want exactly the stale entry", removed, reclaimed)
	}
	if _, ok := cur.Get(key); !ok {
		t.Fatal("GC removed the current build's entry")
	}
	if _, ok := old.Get(key); ok {
		t.Fatal("stale entry survived GC")
	}
}

// TestDiskStoreDegradesCorruptionToMiss: a mangled or truncated entry is a
// miss (counted as a decode failure and removed), never an error — and a put
// then repairs it.
func TestDiskStoreDegradesCorruptionToMiss(t *testing.T) {
	reg := storeTestRegistry(t)
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"flipped-byte", func(d []byte) []byte { d[len(d)/2] ^= 0xff; return d }},
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"empty", func(d []byte) []byte { return nil }},
		{"garbage", func(d []byte) []byte { return []byte("not a snapshot entry") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenDiskStore(dir, "codev1", reg)
			if err != nil {
				t.Fatal(err)
			}
			key := storeTestKey("storetest")
			s.Put(key, storeTestSnapshot(t, reg))
			path := s.entryPath(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupted entry was served")
			}
			if st := s.tierStats(); st.DecodeFailures != 1 {
				t.Fatalf("tier stats = %+v, want 1 decode failure", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupted entry was not removed")
			}
			s.Put(key, storeTestSnapshot(t, reg))
			if _, ok := s.Get(key); !ok {
				t.Fatal("store did not recover after re-put")
			}
		})
	}
}

// TestDiskStoreGCSweepsDebris: orphaned temp files and undecodable entries go,
// live entries and files that are not the store's stay.
func TestDiskStoreGCSweepsDebris(t *testing.T) {
	reg := storeTestRegistry(t)
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	key := storeTestKey("storetest")
	s.Put(key, storeTestSnapshot(t, reg))
	for name, content := range map[string]string{
		"orphan.1234" + tmpExt:             "partial write",
		strings.Repeat("ab", 32) + snapExt: "garbage entry",
		"unrelated.txt":                    "left alone",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, _, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("GC removed %d files, want the temp file and the garbage entry", removed)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("GC removed a live entry")
	}
	if _, err := os.Stat(filepath.Join(dir, "unrelated.txt")); err != nil {
		t.Errorf("GC removed unrelated.txt: %v", err)
	}
}

// TestTieredStorePromotesAndCounts pins the tier composition: disk hits are
// promoted into memory, and the top-level stats keep the
// store-miss-means-execution contract.
func TestTieredStorePromotesAndCounts(t *testing.T) {
	reg := storeTestRegistry(t)
	dir := t.TempDir()

	// Warm the disk via one tiered store (simulating the first process).
	disk, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewTieredStore(nil, disk)
	key := storeTestKey("storetest")
	if _, ok := warm.Get(key); ok {
		t.Fatal("empty tiered store reported a hit")
	}
	warm.Put(key, storeTestSnapshot(t, reg))
	if st := warm.Stats(); st.Executions != 1 || st.Hits != 0 {
		t.Fatalf("cold stats = %+v, want 1 execution (the miss) and no hits", st)
	}

	// A second process: memory cold, disk warm.
	disk2, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTieredStore(NewSnapshotCache(4), disk2)
	if _, ok := tiered.Get(key); !ok {
		t.Fatal("warm disk did not serve the tiered lookup")
	}
	if _, ok := tiered.Get(key); !ok {
		t.Fatal("promoted entry missing from memory tier")
	}
	st := tiered.Stats()
	if st.Executions != 0 {
		t.Fatalf("stats = %+v, want 0 executions on a warm store", st)
	}
	if st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 hits (one disk, one memory)", st)
	}
	if len(st.Tiers) != 2 || st.Tiers[0].Tier != "memory" || st.Tiers[1].Tier != "disk" {
		t.Fatalf("tiers = %+v, want [memory disk]", st.Tiers)
	}
	if st.Tiers[0].Hits != 1 || st.Tiers[1].Hits != 1 || st.Tiers[1].Misses != 0 {
		t.Fatalf("tiers = %+v, want one hit per tier and no disk miss", st.Tiers)
	}
}

// TestTieredStoreConcurrency hammers a tiered store from many goroutines;
// under -race it pins the safety the parallel suite scheduler relies on, and
// the atomic-rename write path means concurrent writers of one key are fine.
func TestTieredStoreConcurrency(t *testing.T) {
	reg := storeTestRegistry(t)
	disk, err := OpenDiskStore(t.TempDir(), "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewTieredStore(NewSnapshotCache(4), disk)
	snap := storeTestSnapshot(t, reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := storeTestKey(string(rune('a' + (g+i)%8)))
				if _, ok := s.Get(key); !ok {
					s.Put(key, snap)
				}
				if i%10 == 0 {
					_ = s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Tiers[1].DroppedPuts != 0 || st.Tiers[1].DecodeFailures != 0 {
		t.Fatalf("concurrent traffic dropped puts or failed decodes: %+v", st)
	}
}

// TestDiskStoreCrashedWriterRecovery simulates a writer SIGKILLed mid-Put.
// The atomic temp-and-rename protocol means a crash can only ever leave an
// orphaned temp file, never a partial committed entry: a fresh process must
// serve the committed entries correctly, Peek must not mistake the orphan (or
// a directory squatting on an entry path) for an entry, and GC must reclaim
// the orphan without touching live entries.
func TestDiskStoreCrashedWriterRecovery(t *testing.T) {
	reg := storeTestRegistry(t)
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	snap := storeTestSnapshot(t, reg)
	k := storeTestKey("storetest")
	s.Put(k, snap)

	// The crash: a writer died between CreateTemp and Rename, leaving its
	// temp file behind (the exact artifact of a SIGKILL mid-Put).
	orphan := filepath.Join(dir, "deadbeef"+snapExt+".12345"+tmpExt)
	if err := os.WriteFile(orphan, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same directory serves the committed entry.
	s2, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok {
		t.Fatal("committed entry lost after simulated crash")
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("recovered snapshot differs:\n  want %+v\n  got  %+v", snap, got)
	}
	if !s2.Peek(k) {
		t.Fatal("Peek misses a committed entry")
	}

	// GC (-store-gc) reclaims exactly the orphan.
	removed, reclaimed, err := s2.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || reclaimed != int64(len("partial write")) {
		t.Fatalf("GC removed %d files / %d bytes, want the 1 orphan / %d bytes",
			removed, reclaimed, len("partial write"))
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived GC")
	}
	if _, ok := s2.Get(k); !ok {
		t.Fatal("GC removed a live entry")
	}

	// Injected rename failure: a directory squatting on the entry path makes
	// os.Rename fail. The Put must degrade to a counted drop, clean up its
	// temp file, and leave Get/Peek reporting a plain miss.
	k2 := storeTestKey("renamefail")
	if err := os.MkdirAll(s2.entryPath(k2), 0o755); err != nil {
		t.Fatal(err)
	}
	s2.Put(k2, snap)
	if st := s2.Stats(); st.Tiers[0].DroppedPuts != 1 {
		t.Fatalf("dropped puts = %d, want 1 after injected rename failure", st.Tiers[0].DroppedPuts)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpExt) {
			t.Fatalf("failed Put leaked temp file %s", e.Name())
		}
	}
	if _, ok := s2.Get(k2); ok {
		t.Fatal("Get served an entry whose path is a directory")
	}
	if s2.Peek(k2) {
		t.Fatal("Peek mistook a directory for an entry")
	}
}

// FuzzDecodeEntry: no input crashes the store entry envelope decoder, nor
// the snapshot decoder a valid envelope hands its stream to (as Get does).
func FuzzDecodeEntry(f *testing.F) {
	reg := storeTestRegistry(f)
	blob, err := EncodeSnapshot(storeTestSnapshot(f, reg))
	if err != nil {
		f.Fatal(err)
	}
	s := &DiskStore{codeVersion: "codev1", reg: reg}
	entry := s.encodeEntry(storeTestKey("storetest"), blob)
	f.Add(entry)
	corruptionSweep(entry, func(mut []byte, _ bool) { f.Add(mut) })
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, blob, err := decodeEntry(data); err == nil {
			_, _ = DecodeSnapshot(blob, reg)
		}
	})
}
