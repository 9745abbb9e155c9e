// Package taskpack defines the versioned on-disk format for benchmark task
// packs: the 39-task grid (and any custom scenario set) as pure JSON data —
// instruction, target application, ground-truth plan, ambiguity and trap
// metadata, declarative setup ops, and a declarative verify condition. A pack
// decodes strictly (unknown fields rejected, schema version gated), converts
// losslessly to and from []osworld.Task, and is identified across process
// boundaries by the SHA-256 of its canonical encoding, which is how replicas
// and coordinators detect that they are running different grids.
//
// The package takes bytes, never file paths: reading a pack off disk is the
// caller's business (cmd/*), which keeps this package inside the purity
// analyzer's scope.
package taskpack

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
)

// SchemaVersion is the pack format revision this build reads and writes.
// Decode rejects any other value so a task silently gaining semantics in a
// future revision cannot be misread by an old binary.
const SchemaVersion = 1

// Pack is the wire form of a task set.
type Pack struct {
	Schema      int        `json:"schema"`
	Name        string     `json:"name"`
	Description string     `json:"description,omitempty"`
	Tasks       []PackTask `json:"tasks"`
}

// PackTask is the wire form of one osworld.Task.
type PackTask struct {
	ID          string      `json:"id"`
	App         string      `json:"app"`
	Description string      `json:"description"`
	Ambiguity   float64     `json:"ambiguity,omitempty"`
	Expected    string      `json:"expected,omitempty"`
	Setup       []PackSetup `json:"setup,omitempty"`
	Verify      PackCond    `json:"verify"`
	Plan        []PackStep  `json:"plan"`
}

// PackSetup is the wire form of one osworld.SetupOp.
type PackSetup struct {
	Op    string   `json:"op"`
	Texts []string `json:"texts,omitempty"`
	Ref   string   `json:"ref,omitempty"`
	Path  string   `json:"path,omitempty"`
	Value any      `json:"value,omitempty"`
	Count int      `json:"count,omitempty"`
}

// PackCond is the wire form of one osworld.Cond node. Value carries JSON
// scalars only (string, bool, number), matching the condition language.
type PackCond struct {
	Op    string     `json:"op"`
	Path  string     `json:"path,omitempty"`
	Value any        `json:"value,omitempty"`
	Subs  []PackCond `json:"subs,omitempty"`
}

// PackStep is the wire form of one osworld.PlanStep.
type PackStep struct {
	Kind       string      `json:"kind"`
	Target     *PackTarget `json:"target,omitempty"`
	Text       string      `json:"text,omitempty"`
	Key        string      `json:"key,omitempty"`
	State      *PackState  `json:"state,omitempty"`
	Ambiguity  float64     `json:"ambiguity,omitempty"`
	VisualDiff float64     `json:"visual_diff,omitempty"`
	Trap       *PackTrap   `json:"trap,omitempty"`
}

// PackTarget is the wire form of osworld.Target.
type PackTarget struct {
	Primary     string `json:"primary"`
	GIDContains string `json:"gid_contains,omitempty"`
	Via         string `json:"via,omitempty"`
}

// PackState is the wire form of osworld.StateOp. ControlType travels as the
// UIA-style name ("Document", "ScrollBar", ...); scroll axes keep the
// uia.NoScroll sentinel (-1).
type PackState struct {
	Op          string   `json:"op"`
	Control     string   `json:"control"`
	ControlType string   `json:"control_type"`
	H           float64  `json:"h,omitempty"`
	V           float64  `json:"v,omitempty"`
	Start       int      `json:"start,omitempty"`
	End         int      `json:"end,omitempty"`
	Names       []string `json:"names,omitempty"`
	On          bool     `json:"on,omitempty"`
	Value       float64  `json:"value,omitempty"`
}

// PackTrap is the wire form of a plan step's failure trap (TrapKind,
// TrapWeight, TrapAlt). It is present whenever any of the three is set —
// a weightless trap that only redirects the target still encodes its Alt.
type PackTrap struct {
	Kind   string      `json:"kind,omitempty"`
	Weight float64     `json:"weight,omitempty"`
	Alt    *PackTarget `json:"alt,omitempty"`
}

// Decode parses pack bytes strictly: unknown fields anywhere in the document
// are rejected (so a typoed field name cannot silently become a no-op), and
// the schema version must match SchemaVersion exactly. Errors carry 1-based
// line:column positions into data where the decoder can provide them.
func Decode(data []byte) (*Pack, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Pack
	if err := dec.Decode(&p); err != nil {
		return nil, decodeError(data, dec, err)
	}
	// A second value after the pack object means the file is not one JSON
	// document (e.g. two packs concatenated).
	if dec.More() {
		line, col := lineCol(data, dec.InputOffset())
		return nil, fmt.Errorf("%d:%d: trailing data after pack object", line, col)
	}
	if p.Schema != SchemaVersion {
		return nil, fmt.Errorf("unsupported pack schema %d (this build reads schema %d)", p.Schema, SchemaVersion)
	}
	return &p, nil
}

// Encode renders the canonical encoding of the pack: two-space indented JSON
// with a trailing newline, fields in wire-struct order. Hash is defined over
// these bytes, and dmi-tasks -export writes exactly these bytes, so a pack
// re-exported from the same tasks is byte-identical.
func (p *Pack) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Hash returns the pack identity: the hex SHA-256 of the canonical encoding.
// Because the input is the re-encoding, not the bytes a pack was loaded from,
// reformatting a pack file on disk does not change its identity — only a
// change to its content does.
func (p *Pack) Hash() (string, error) {
	canon, err := p.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// decodeError attaches a line:column position to a decoder error. Syntax
// and type errors carry their offset. An unknown-field error carries none,
// and the decoder's own position is no help: it reads the whole document
// before it unmarshals, so it stands at the document's end. That error is
// placed at the offending key instead, found by walking the document
// against the wire types.
func decodeError(data []byte, dec *json.Decoder, err error) error {
	offset := dec.InputOffset()
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		offset = syn.Offset
	case errors.As(err, &typ):
		offset = typ.Offset
	default:
		if off, ok := unknownKeyOffset(data); ok {
			offset = off
		}
	}
	line, col := lineCol(data, offset)
	return fmt.Errorf("%d:%d: %v", line, col, err)
}

// unknownKeyOffset returns the offset of the first object key in data that
// names no field of the wire struct its object decodes into — the key
// DisallowUnknownFields rejects — or false when every key is known.
func unknownKeyOffset(data []byte) (int64, bool) {
	off, err := findUnknownKey(json.NewDecoder(bytes.NewReader(data)), data, reflect.TypeOf(Pack{}))
	return off, err == nil && off >= 0
}

// findUnknownKey reads one JSON value that decodes into t and returns the
// offset of its first unknown key, or -1. Keys inside a free-form value
// (an interface-typed field) are never unknown.
func findUnknownKey(dec *json.Decoder, data []byte, t reflect.Type) (int64, error) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	tok, err := dec.Token()
	if err != nil {
		return -1, err
	}
	switch tok {
	case json.Delim('['):
		elem := t
		if t.Kind() == reflect.Slice {
			elem = t.Elem()
		}
		for dec.More() {
			if off, err := findUnknownKey(dec, data, elem); off >= 0 || err != nil {
				return off, err
			}
		}
	case json.Delim('{'):
		for dec.More() {
			// The key starts past the separators that follow the
			// previous token.
			start := dec.InputOffset()
			for start < int64(len(data)) && strings.IndexByte(" \t\r\n,", data[start]) >= 0 {
				start++
			}
			key, err := dec.Token()
			if err != nil {
				return -1, err
			}
			ft := t
			if name, _ := key.(string); t.Kind() == reflect.Struct {
				f, ok := wireField(t, name)
				if !ok {
					return start, nil
				}
				ft = f.Type
			}
			if off, err := findUnknownKey(dec, data, ft); off >= 0 || err != nil {
				return off, err
			}
		}
	default:
		return -1, nil // a scalar
	}
	_, err = dec.Token() // the closing delimiter
	return -1, err
}

// wireField returns the field of struct t that key decodes into, matching
// the json tag name as encoding/json does, case-insensitively.
func wireField(t reflect.Type, key string) (reflect.StructField, bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		if strings.EqualFold(name, key) {
			return f, true
		}
	}
	return reflect.StructField{}, false
}

// lineCol converts a byte offset into 1-based line and column numbers.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	head := data[:offset]
	line = 1 + bytes.Count(head, []byte("\n"))
	if i := bytes.LastIndexByte(head, '\n'); i >= 0 {
		col = int(offset) - i
	} else {
		col = int(offset) + 1
	}
	return line, col
}
