package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"ilsim/internal/core"
)

// Fingerprint returns a short stable hash of the job's identity: the model
// version and every field that decides the job's result. The journal keys
// completed work by it and a distributed campaign checks it at join, in the
// same spirit as stats.Run.Fingerprint() on the result side. Two jobs with
// equal fingerprints produce byte-identical runs (the determinism
// guarantee).
func (j Job) Fingerprint() string { return j.fingerprint(core.ModelVersion) }

func (j Job) fingerprint(model int) string {
	var buf [1024]byte
	sum := sha256.Sum256(j.appendIdentity(buf[:0], model))
	var fp [24]byte
	hex.Encode(fp[:], sum[:12])
	return string(fp[:])
}

// appendIdentity encodes the job as one name=value line per field: the
// model version, the job's own fields, then the fields of Config and Opts
// in name order. Every field but Abs is left out at its zero value, so a
// knob added at a zero default, or the deletion of a field no job sets,
// changes no job's identity; Abs is written by name because AbsHSAIL is its
// zero value.
func (j Job) appendIdentity(b []byte, model int) []byte {
	b = appendInt(b, "model", int64(model))
	b = appendString(b, "Label", j.Label)
	b = appendString(b, "Workload", j.Workload)
	b = appendInt(b, "Scale", int64(j.Scale))
	b = appendString(b, "Abs", j.Abs.String())
	b = appendInt(b, "Timeout", int64(j.Timeout))
	b = appendFields(b, configFields, reflect.ValueOf(&j.Config).Elem())
	return appendFields(b, optsFields, reflect.ValueOf(&j.Opts).Elem())
}

// identityField is one field of a struct a job's identity encodes: its key
// (the struct's field name in Job, a dot, the field's own name) and its
// index in the struct.
type identityField struct {
	key   string
	index int
}

var (
	configFields = identityFields("Config", reflect.TypeFor[core.Config]())
	optsFields   = identityFields("Opts", reflect.TypeFor[core.RunOptions]())
)

// identityFields lists the fields of struct type t sorted by key. A field
// of a kind appendFields cannot encode panics here, at package
// initialisation, rather than fall out of every job's identity.
func identityFields(prefix string, t reflect.Type) []identityField {
	fields := make([]identityField, t.NumField())
	for i := range fields {
		f := t.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			panic(fmt.Sprintf("exp: %s.%s is a %s; a job's identity encodes booleans, integers and strings",
				prefix, f.Name, f.Type))
		}
		fields[i] = identityField{key: prefix + "." + f.Name, index: i}
	}
	slices.SortFunc(fields, func(a, b identityField) int { return strings.Compare(a.key, b.key) })
	return fields
}

// appendFields appends the non-zero fields of struct v in the order of
// fields.
func appendFields(b []byte, fields []identityField, v reflect.Value) []byte {
	for _, f := range fields {
		switch fv := v.Field(f.index); fv.Kind() {
		case reflect.Bool:
			b = appendBool(b, f.key, fv.Bool())
		case reflect.String:
			b = appendString(b, f.key, fv.String())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b = appendInt(b, f.key, fv.Int())
		default:
			b = appendUint(b, f.key, fv.Uint())
		}
	}
	return b
}

func appendKey(b []byte, key string) []byte { return append(append(b, key...), '=') }

func appendBool(b []byte, key string, v bool) []byte {
	if !v {
		return b
	}
	return append(appendKey(b, key), "true\n"...)
}

func appendInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return append(strconv.AppendInt(appendKey(b, key), v, 10), '\n')
}

func appendUint(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return append(strconv.AppendUint(appendKey(b, key), v, 10), '\n')
}

func appendString(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return append(strconv.AppendQuote(appendKey(b, key), v), '\n')
}
