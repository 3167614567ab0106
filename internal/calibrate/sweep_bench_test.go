package calibrate

import (
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/platforms"
	_ "vcomputebench/internal/rodinia/suite"
)

// Wall-time benchmarks for the calibration sweep, the workflow the
// counter-replay snapshot cache was built for. Both run the real default
// sweep (every supported knob) of the Nexus Player platform at one
// repetition; the only difference is whether candidate evaluations share a
// snapshot cache. BenchmarkSweep performs one full suite execution plus E
// analytic replays, BenchmarkSweepUncached performs E full executions — the
// ratio recorded in BENCH_suite.json is the sweep speedup this architecture
// buys (>=10x; the evaluation count E is ~37 on this platform).

func sweepPlatform(b *testing.B) *platforms.Platform {
	b.Helper()
	p, err := platforms.ByID(platforms.IDPowerVR)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkSweep is `vcbench -calibrate powervr-g6430 -sweep`: one suite
// execution, every candidate scored by replay.
func BenchmarkSweep(b *testing.B) {
	p := sweepPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Sweep(p, Options{
			Experiments: experiments.Options{Repetitions: 1, Seed: 42, Cache: core.NewSnapshotCache(0)},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepUncached is the pre-cache sweep: every candidate evaluation
// re-executes the platform's full figure suite.
func BenchmarkSweepUncached(b *testing.B) {
	p := sweepPlatform(b)
	exOpts := experiments.Options{Repetitions: 1, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Sweep(p, Options{Experiments: exOpts})
		if err != nil {
			b.Fatal(err)
		}
	}
}
