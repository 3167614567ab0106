package hw_test

import (
	"reflect"
	"testing"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// canonicalFingerprints are the execution fingerprints of the four paper
// platforms. Snapshot store keys embed them, so a change to either the
// declaration or the encoding must show up here.
var canonicalFingerprints = map[string]string{
	platforms.IDGTX1050Ti: "class=desktop;warp=32;line=128;devmem=4294967296;hostmem=17179869184;unified=false;maxwg=1024;OpenCL=on,pcb=false,maxpush=1024;Vulkan=on,pcb=false,maxpush=256;CUDA=on,pcb=false,maxpush=4096",
	platforms.IDRX560:     "class=desktop;warp=64;line=128;devmem=4294967296;hostmem=17179869184;unified=false;maxwg=1024;OpenCL=on,pcb=false,maxpush=1024;Vulkan=on,pcb=false,maxpush=128;CUDA=off",
	platforms.IDPowerVR:   "class=mobile;warp=32;line=64;devmem=536870912;hostmem=1073741824;unified=true;maxwg=512;OpenCL=on,pcb=false,maxpush=1024;Vulkan=on,pcb=false,maxpush=128;CUDA=off",
	platforms.IDAdreno506: "class=mobile;warp=64;line=64;devmem=805306368;hostmem=2147483648;unified=true;maxwg=512;OpenCL=on,pcb=false,maxpush=1024;Vulkan=on,pcb=true,maxpush=128;CUDA=off",
}

// move changes a field value of any kind the profiles use.
func move(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Map:
		v.SetMapIndex(reflect.ValueOf(hw.APIVulkan), reflect.Value{}) // every platform supports Vulkan
	default:
		t.Fatalf("cannot move a %s field", v.Type())
	}
}

// TestExecutionFingerprintContract pins the canonical fingerprints and the
// classification they rest on: moving any structural field, profile-level or
// per-driver, changes the fingerprint; moving any timing or descriptive field
// does not.
func TestExecutionFingerprintContract(t *testing.T) {
	for _, p := range platforms.All() {
		base := p.Profile.ExecutionFingerprint()
		if want := canonicalFingerprints[p.ID]; base != want {
			t.Errorf("%s fingerprint\n  got  %s\n  want %s", p.ID, base, want)
		}
		check := func(where string, kind hw.FieldKind, cand *platforms.Platform) {
			moved := cand.Profile.ExecutionFingerprint() != base
			if moved != (kind == hw.Structural) {
				t.Errorf("%s %s: fingerprint changed = %v, want %v", p.ID, where, moved, kind == hw.Structural)
			}
		}
		for _, f := range hw.ProfileFields() {
			cand := p.Clone()
			move(t, reflect.ValueOf(&cand.Profile).Elem().FieldByName(f.Name))
			check(f.Name, f.Kind, cand)
		}
		for _, api := range p.Profile.SupportedAPIs() {
			for _, f := range hw.DriverFields() {
				cand := p.Clone()
				drv := cand.Profile.Drivers[api]
				move(t, reflect.ValueOf(&drv).Elem().FieldByName(f.Name))
				cand.Profile.Drivers[api] = drv
				check(string(api)+"."+f.Name, f.Kind, cand)
			}
		}
	}
}
