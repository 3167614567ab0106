package hw

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestFieldClassification pins the declaration's completeness: every exported
// field of Profile and DriverProfile is classified exactly once, and the
// fingerprint names and serve wire names are unique.
func TestFieldClassification(t *testing.T) {
	for _, tc := range []struct {
		typ    reflect.Type
		fields []Field
	}{
		{reflect.TypeOf(Profile{}), ProfileFields()},
		{reflect.TypeOf(DriverProfile{}), DriverFields()},
	} {
		declared := map[string]int{}
		for _, f := range tc.fields {
			declared[f.Name]++
			if f.Kind < Descriptive || f.Kind > Timing {
				t.Errorf("%s.%s is unclassified: add an hw tag", tc.typ.Name(), f.Name)
			}
			if f.Kind == Descriptive && f.Key != "" {
				t.Errorf("descriptive %s.%s has key %q", tc.typ.Name(), f.Name, f.Key)
			}
		}
		for i := 0; i < tc.typ.NumField(); i++ {
			if sf := tc.typ.Field(i); sf.IsExported() && declared[sf.Name] != 1 {
				t.Errorf("%s.%s is declared %d times, want once", tc.typ.Name(), sf.Name, declared[sf.Name])
			}
		}
		if len(declared) != len(tc.fields) {
			t.Errorf("%s table has %d entries for %d distinct fields", tc.typ.Name(), len(tc.fields), len(declared))
		}
	}
	keys := map[string]string{}
	for _, f := range append(ProfileFields(), DriverFields()...) {
		if f.Key == "" {
			continue
		}
		if prev, dup := keys[f.Key]; dup {
			t.Errorf("key %q declared by both %s and %s", f.Key, prev, f.Name)
		}
		keys[f.Key] = f.Name
	}
}

// TestKnobFields pins the Knob enum to its DriverProfile fields: each Knob
// reads exactly one timing duration, every timing duration is a Knob, and
// the order (the trace codec's wire order) matches the enum's.
func TestKnobFields(t *testing.T) {
	want := [knobCount]string{
		KnobKernelLaunch:     "KernelLaunchOverhead",
		KnobSync:             "SyncLatency",
		KnobSubmit:           "SubmitOverhead",
		KnobCommandRecord:    "CommandRecordOverhead",
		KnobPipelineBind:     "PipelineBindOverhead",
		KnobBarrier:          "BarrierOverhead",
		KnobDescriptorUpdate: "DescriptorUpdateOverhead",
		KnobPushConstant:     "PushConstantOverhead",
		KnobJITCompile:       "JITCompileTime",
		KnobPipelineCreate:   "PipelineCreateTime",
		KnobAlloc:            "AllocOverhead",
	}
	var d DriverProfile
	v := reflect.ValueOf(&d).Elem()
	for k := Knob(0); k < knobCount; k++ {
		v.FieldByName(want[k]).SetInt(int64(k) + 1)
	}
	for k := Knob(0); k < knobCount; k++ {
		if got := knobFields[k].Name; got != want[k] {
			t.Errorf("knob %d is field %s, want %s", k, got, want[k])
		}
		if got := k.value(&d); got != time.Duration(k)+1 {
			t.Errorf("knob %d (%s) reads %v, want %v", k, want[k], got, time.Duration(k)+1)
		}
	}
	durations := 0
	for _, f := range DriverFields() {
		if f.Kind == Timing && f.IsDuration() {
			durations++
		}
	}
	if durations != int(knobCount) {
		t.Errorf("%d timing durations for %d knobs", durations, knobCount)
	}
}

// TestDriverValidateRejectsNegativeDurations: a negative timing duration is
// never a valid driver, whichever knob carries it.
func TestDriverValidateRejectsNegativeDurations(t *testing.T) {
	for _, f := range knobFields {
		d := perfectDriver()
		f.SetDuration(&d, -time.Nanosecond)
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), f.Name) {
			t.Errorf("negative %s: Validate = %v, want an error naming the field", f.Name, err)
		}
	}
	d := perfectDriver()
	if err := d.Validate(); err != nil {
		t.Fatalf("perfect driver: %v", err)
	}
}
