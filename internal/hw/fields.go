package hw

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// This file is the single declaration of how every Profile and DriverProfile
// field relates to the execute/replay seam. Each exported field carries an
// `hw:"kind[,key]"` struct tag, read once at package init into the tables
// below; the execution fingerprint, the Knob valuation behind Cost.Duration,
// DriverProfile.Validate's duration checks, serve's driver_knobs and the
// calibration sweep's knob access all derive from them, so classifying a new
// field is one tag, not five hand-kept lists.

// FieldKind classifies a Profile or DriverProfile field by what changing it
// does to a recorded run.
type FieldKind uint8

// Field kinds. The zero kind marks a field with no hw tag.
const (
	// Descriptive fields only feed reports and device-property queries; no
	// run reads them to decide anything.
	Descriptive FieldKind = iota + 1
	// Structural fields can change what a run executes or records: the event
	// sequence, dispatch counters, allocation success, which knob a cost
	// refers to. ExecutionFingerprint covers them, so a snapshot never
	// replays across a structural change.
	Structural
	// Timing fields only change durations; replay revalues them on a
	// recorded trace.
	Timing
)

var kindNames = map[string]FieldKind{
	"descriptive": Descriptive,
	"structural":  Structural,
	"timing":      Timing,
}

// Field is the declaration of one exported Profile or DriverProfile field.
type Field struct {
	// Name is the Go field name.
	Name string
	// Kind is the field's classification.
	Kind FieldKind
	// Key is the fingerprint name of a structural field, or the serve
	// driver_knobs wire name of a timing field serve may override. Empty for
	// structural fields the fingerprint encodes by its shape (a driver's
	// Supported flag, the Drivers map) and for timing fields serve does not
	// expose.
	Key string

	driver bool
	typ    reflect.Type
	offset uintptr
}

var (
	durationType = reflect.TypeOf(time.Duration(0))
	float64Type  = reflect.TypeOf(float64(0))

	profileFields = declaredFields(reflect.TypeOf(Profile{}), false)
	driverFields  = declaredFields(reflect.TypeOf(DriverProfile{}), true)
	// knobFields maps each Knob to its DriverProfile field: the timing
	// durations, in declaration order.
	knobFields = indexKnobs(driverFields)
	wireKnobs  = indexWireKnobs(driverFields)
)

// declaredFields reads the hw tags of a struct's exported fields. A malformed
// tag is a programming error and panics at init; a missing tag leaves the
// field unclassified (kind zero), which TestFieldClassification rejects.
func declaredFields(t reflect.Type, driver bool) []Field {
	var out []Field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		f := Field{Name: sf.Name, driver: driver, typ: sf.Type, offset: sf.Offset}
		if tag, ok := sf.Tag.Lookup("hw"); ok {
			kind, key, _ := strings.Cut(tag, ",")
			f.Kind, f.Key = kindNames[kind], key
			if f.Kind == 0 {
				panic(fmt.Sprintf("hw: %s.%s has unknown field kind %q", t.Name(), sf.Name, kind))
			}
			if f.Kind == Structural && f.Key != "" {
				switch sf.Type.Kind() {
				case reflect.String, reflect.Int, reflect.Int64, reflect.Bool:
				default:
					panic(fmt.Sprintf("hw: structural %s.%s has unfingerprintable type %s", t.Name(), sf.Name, sf.Type))
				}
			}
			if f.Kind == Timing && f.Key != "" && f.typ != durationType && f.typ != float64Type {
				panic(fmt.Sprintf("hw: timing %s.%s has a wire name but type %s", t.Name(), sf.Name, sf.Type))
			}
		}
		out = append(out, f)
	}
	return out
}

func indexKnobs(fields []Field) (out [knobCount]Field) {
	n := 0
	for _, f := range fields {
		if f.Kind == Timing && f.IsDuration() {
			if n == int(knobCount) {
				panic("hw: more DriverProfile timing durations than Knobs")
			}
			out[n] = f
			n++
		}
	}
	if n != int(knobCount) {
		panic("hw: fewer DriverProfile timing durations than Knobs")
	}
	return out
}

func indexWireKnobs(fields []Field) map[string]Field {
	out := map[string]Field{}
	for _, f := range fields {
		if f.Kind == Timing && f.Key != "" {
			out[f.Key] = f
		}
	}
	return out
}

// ProfileFields returns the declarations of Profile's exported fields, in
// field order.
func ProfileFields() []Field { return append([]Field(nil), profileFields...) }

// DriverFields returns the declarations of DriverProfile's exported fields,
// in field order.
func DriverFields() []Field { return append([]Field(nil), driverFields...) }

// LookupDriverField returns the DriverProfile field with the Go name.
func LookupDriverField(name string) (Field, bool) {
	for _, f := range driverFields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// WireKnob returns the timing DriverProfile field serve overrides under the
// driver_knobs wire name.
func WireKnob(wire string) (Field, bool) {
	f, ok := wireKnobs[wire]
	return f, ok
}

// IsDuration reports whether the field holds a time.Duration.
func (f Field) IsDuration() bool { return f.typ == durationType }

// at returns a pointer to the field inside d, checking the field belongs to
// DriverProfile and has type want. Misuse is a programming error and panics.
func (f Field) at(d *DriverProfile, want reflect.Type) unsafe.Pointer {
	if !f.driver || f.typ != want {
		panic(fmt.Sprintf("hw: %s is not a DriverProfile %s field", f.Name, want))
	}
	return unsafe.Add(unsafe.Pointer(d), f.offset)
}

// Duration reads a time.Duration DriverProfile field.
func (f Field) Duration(d *DriverProfile) time.Duration {
	return *(*time.Duration)(f.at(d, durationType))
}

// SetDuration writes a time.Duration DriverProfile field.
func (f Field) SetDuration(d *DriverProfile, v time.Duration) {
	*(*time.Duration)(f.at(d, durationType)) = v
}

// Float reads a float64 DriverProfile field.
func (f Field) Float(d *DriverProfile) float64 { return *(*float64)(f.at(d, float64Type)) }

// SetFloat writes a float64 DriverProfile field.
func (f Field) SetFloat(d *DriverProfile, v float64) { *(*float64)(f.at(d, float64Type)) = v }

// appendStructural appends `key=value` for every keyed structural field of
// the struct at base, each preceded by sep (the first one only when b is not
// empty).
func appendStructural(b []byte, base unsafe.Pointer, fields []Field, sep byte) []byte {
	for _, f := range fields {
		if f.Kind != Structural || f.Key == "" {
			continue
		}
		if len(b) > 0 {
			b = append(b, sep)
		}
		b = append(b, f.Key...)
		b = append(b, '=')
		p := unsafe.Add(base, f.offset)
		switch f.typ.Kind() {
		case reflect.String:
			b = append(b, *(*string)(p)...)
		case reflect.Int:
			b = strconv.AppendInt(b, int64(*(*int)(p)), 10)
		case reflect.Int64:
			b = strconv.AppendInt(b, *(*int64)(p), 10)
		case reflect.Bool:
			b = strconv.AppendBool(b, *(*bool)(p))
		}
	}
	return b
}

// ExecutionFingerprint summarises every structural profile field — the
// fields that can change a run's execution (trace structure, dispatch
// counters, allocation success, memory-mapping validity) as opposed to the
// timing fields replay revalues. Two profiles with equal fingerprints may
// share recorded counter snapshots; the snapshot store keys on it so a
// calibration sweep's candidate profiles all hit the same entry.
//
// The string is the profile's keyed structural fields, then one section per
// API in AllAPIs order: "=off" for an unsupported API, else "=on" followed by
// the driver's keyed structural fields.
func (p *Profile) ExecutionFingerprint() string {
	var buf [256]byte
	b := appendStructural(buf[:0], unsafe.Pointer(p), profileFields, ';')
	for _, api := range AllAPIs() {
		b = append(b, ';')
		b = append(b, api.String()...)
		drv, ok := p.Driver(api)
		if !ok {
			b = append(b, "=off"...)
			continue
		}
		b = append(b, "=on"...)
		b = appendStructural(b, unsafe.Pointer(&drv), driverFields, ',')
	}
	return string(b)
}
