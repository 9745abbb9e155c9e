package taskpack

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/osworld"
)

// The tentpole invariant: the compiled-in grid exports to a pack, the pack
// loads back, and the loaded tasks are structurally identical to the grid.
// Task is pure data, so DeepEqual is exact — any field the wire format
// dropped or coerced would fail here.
func TestRoundTripIsLossless(t *testing.T) {
	grid := osworld.All()
	p, err := BuiltinPack()
	if err != nil {
		t.Fatalf("BuiltinPack: %v", err)
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	p2, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	loaded, err := p2.ToTasks()
	if err != nil {
		t.Fatalf("ToTasks: %v", err)
	}
	if len(loaded) != len(grid) {
		t.Fatalf("loaded %d tasks, grid has %d", len(loaded), len(grid))
	}
	for i := range grid {
		if !reflect.DeepEqual(loaded[i], grid[i]) {
			t.Errorf("task %s not preserved by round trip:\n grid: %+v\n pack: %+v",
				grid[i].ID, grid[i], loaded[i])
		}
	}
}

// Encoding is canonical: decode→encode reproduces the exact bytes, so the
// identity hash is stable and CI can diff an export against the committed
// pack file.
func TestEncodeIsCanonical(t *testing.T) {
	p, err := BuiltinPack()
	if err != nil {
		t.Fatalf("BuiltinPack: %v", err)
	}
	first, err := p.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	p2, err := Decode(first)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	second, err := p2.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("decode→encode is not byte-stable")
	}
	if !bytes.HasSuffix(first, []byte("}\n")) {
		t.Fatal("canonical encoding must end with a trailing newline")
	}
}

// A pack's identity survives reformatting: loading the canonical bytes and
// loading a reindented copy yield the same hash, and both match Builtin.
func TestHashIgnoresFormatting(t *testing.T) {
	p, err := BuiltinPack()
	if err != nil {
		t.Fatalf("BuiltinPack: %v", err)
	}
	canon, err := p.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	reg, err := Load(canon)
	if err != nil {
		t.Fatalf("Load canonical: %v", err)
	}
	// Reformat: collapse the two-space indents.
	ugly := bytes.ReplaceAll(canon, []byte("\n  "), []byte("\n"))
	reg2, err := Load(ugly)
	if err != nil {
		t.Fatalf("Load reformatted: %v", err)
	}
	if reg.Hash() != reg2.Hash() {
		t.Errorf("reformatting forked the identity: %s vs %s", reg.Hash(), reg2.Hash())
	}
	if reg.Hash() != Builtin().Hash() {
		t.Errorf("loaded hash %s != builtin hash %s", reg.Hash(), Builtin().Hash())
	}
	if reg.Name() != BuiltinName {
		t.Errorf("loaded name %q, want %q", reg.Name(), BuiltinName)
	}
}

func TestBuiltinRegistry(t *testing.T) {
	reg := Builtin()
	if reg.Len() != len(osworld.All()) {
		t.Fatalf("builtin has %d tasks, grid has %d", reg.Len(), len(osworld.All()))
	}
	if len(reg.Hash()) != 64 {
		t.Errorf("hash %q is not a hex sha256", reg.Hash())
	}
	if _, ok := reg.ByID("word-replace"); !ok {
		t.Error("ByID(word-replace) not found")
	}
	if _, ok := reg.ByID("no-such-task"); ok {
		t.Error("ByID(no-such-task) resolved")
	}
	if Builtin() != reg {
		t.Error("Builtin is not a singleton")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	p, _ := BuiltinPack()
	data, _ := p.Encode()
	bad := bytes.Replace(data, []byte(`"name"`), []byte(`"nmae"`), 1)
	if _, err := Decode(bad); err == nil {
		t.Fatal("unknown top-level field accepted")
	} else if !strings.Contains(err.Error(), "nmae") {
		t.Errorf("error does not name the unknown field: %v", err)
	}
	bad = bytes.Replace(data, []byte(`"ambiguity"`), []byte(`"ambiquity"`), 1)
	if _, err := Decode(bad); err == nil {
		t.Fatal("unknown nested field accepted")
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	if _, err := Decode([]byte(`{"schema": 2, "name": "x", "tasks": []}`)); err == nil {
		t.Fatal("future schema accepted")
	} else if !strings.Contains(err.Error(), "schema 2") {
		t.Errorf("error does not name the schema: %v", err)
	}
	if _, err := Decode([]byte(`{"name": "x", "tasks": []}`)); err == nil {
		t.Fatal("missing schema accepted")
	}
}

func TestDecodeErrorsCarryPosition(t *testing.T) {
	src := "{\n  \"schema\": 1,\n  \"name\": \"x\",\n  \"tasks\": [,]\n}\n"
	_, err := Decode([]byte(src))
	if err == nil {
		t.Fatal("syntax error accepted")
	}
	if !strings.HasPrefix(err.Error(), "4:") {
		t.Errorf("error not located to line 4: %v", err)
	}

	// An unknown field is located at its key, not at the end of the pack
	// the decoder had read by the time it saw the key.
	p, _ := BuiltinPack()
	data, _ := p.Encode()
	at := bytes.Index(data, []byte(`"ambiguity"`))
	line := 1 + bytes.Count(data[:at], []byte("\n"))
	col := at - bytes.LastIndexByte(data[:at], '\n')
	bad := bytes.Replace(data, []byte(`"ambiguity"`), []byte(`"ambiguityy"`), 1)
	_, err = Decode(bad)
	if want := fmt.Sprintf("%d:%d: json: unknown field \"ambiguityy\"", line, col); err == nil || err.Error() != want {
		t.Errorf("unknown field error %v, want %q", err, want)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	if _, err := Decode([]byte(`{"schema":1,"name":"x","tasks":[]} {"extra":1}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestValidateFindsSemanticIssues(t *testing.T) {
	mut := func(f func(*Pack)) []byte {
		p, err := BuiltinPack()
		if err != nil {
			t.Fatalf("BuiltinPack: %v", err)
		}
		f(p)
		data, err := p.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"clean", mut(func(p *Pack) {}), ""},
		{"every op of core's declaration table is known", mut(func(p *Pack) {
			p.Tasks[0].Plan = append(p.Tasks[0].Plan,
				PackStep{Kind: "state", State: &PackState{Op: "set_toggle_state", Control: "Bold", ControlType: "Button", On: true}},
				PackStep{Kind: "state", State: &PackState{Op: "set_expanded", Control: "Font", ControlType: "ComboBox", On: true}})
		}), ""},
		{"duplicate id", mut(func(p *Pack) { p.Tasks[1].ID = p.Tasks[0].ID }), "duplicate task id"},
		{"unknown app", mut(func(p *Pack) { p.Tasks[0].App = "Outlook" }), `unknown application "Outlook"`},
		{"empty id", mut(func(p *Pack) { p.Tasks[0].ID = "" }), "has no id"},
		{"no name", mut(func(p *Pack) { p.Name = "" }), "pack has no name"},
		{"no tasks", mut(func(p *Pack) { p.Tasks = nil }), "pack has no tasks"},
		{"no description", mut(func(p *Pack) { p.Tasks[0].Description = "" }), "no description"},
		{"no plan", mut(func(p *Pack) { p.Tasks[0].Plan = nil }), "no plan steps"},
		{"unknown step kind", mut(func(p *Pack) { p.Tasks[0].Plan[0].Kind = "teleport" }), `unknown step kind "teleport"`},
		{"empty target", mut(func(p *Pack) { p.Tasks[0].Plan[0].Target = nil }), "needs a target"},
		{"empty key", mut(func(p *Pack) {
			p.Tasks[0].Plan[0] = PackStep{Kind: "shortcut"}
		}), "needs a key"},
		{"unknown state op", mut(func(p *Pack) {
			p.Tasks[0].Plan[0] = PackStep{Kind: "state", State: &PackState{Op: "warp", Control: "X", ControlType: "Document"}}
		}), `unknown state op "warp"`},
		{"unknown trap kind", mut(func(p *Pack) {
			p.Tasks[0].Plan[0].Trap = &PackTrap{Kind: "gremlins", Weight: 0.5}
		}), `unknown trap kind "gremlins"`},
		{"unknown control type", mut(func(p *Pack) {
			for i := range p.Tasks[0].Plan {
				if p.Tasks[0].Plan[i].State != nil {
					p.Tasks[0].Plan[i].State.ControlType = "Wormhole"
				}
			}
			// word-replace has no state step; put one in.
			p.Tasks[0].Plan = append(p.Tasks[0].Plan, PackStep{Kind: "state",
				State: &PackState{Op: "scrollbar", Control: "X", ControlType: "Wormhole"}})
		}), `unknown control type "Wormhole"`},
		{"unknown setup op", mut(func(p *Pack) {
			p.Tasks[0].Setup = []PackSetup{{Op: "summon"}}
		}), `setup op "summon" not supported`},
		{"unknown condition op", mut(func(p *Pack) {
			p.Tasks[0].Verify = PackCond{Op: "maybe"}
		}), `unknown condition op "maybe"`},
		{"unknown state path", mut(func(p *Pack) {
			p.Tasks[0].Verify = PackCond{Op: "equals", Path: "sideways", Value: true}
		}), `unknown Word state path "sideways"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			issues := Validate(tc.data)
			if tc.want == "" {
				if len(issues) != 0 {
					t.Fatalf("clean pack has issues: %v", issues)
				}
				return
			}
			if len(issues) == 0 {
				t.Fatalf("no issues found, want %q", tc.want)
			}
			found := false
			for _, i := range issues {
				if strings.Contains(i.String(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("issues %v do not mention %q", issues, tc.want)
			}
		})
	}
}

// Issues point at the line the offending task's id appears on.
func TestValidateLocatesIssuesByLine(t *testing.T) {
	p, err := BuiltinPack()
	if err != nil {
		t.Fatalf("BuiltinPack: %v", err)
	}
	p.Tasks[1].App = "Outlook"
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	issues := Validate(data)
	if len(issues) == 0 {
		t.Fatal("no issues found")
	}
	badID := p.Tasks[1].ID
	wantLine := 1 + bytes.Count(data[:bytes.Index(data, []byte(`"`+badID+`"`))], []byte("\n"))
	if issues[0].Line != wantLine {
		t.Errorf("issue at line %d, want %d (%s)", issues[0].Line, wantLine, issues[0])
	}
	if issues[0].Task != badID {
		t.Errorf("issue names task %q, want %q", issues[0].Task, badID)
	}
}

func TestLoadRejectsInvalidPack(t *testing.T) {
	p, err := BuiltinPack()
	if err != nil {
		t.Fatalf("BuiltinPack: %v", err)
	}
	p.Tasks[0].App = "Outlook"
	p.Tasks[1].App = "Notepad"
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	_, err = Load(data)
	if err == nil {
		t.Fatal("invalid pack loaded")
	}
	if !strings.Contains(err.Error(), "more issue") {
		t.Errorf("multi-issue load error does not count the rest: %v", err)
	}
}

// Every loaded task must build a working environment: a pack passing Load is
// runnable end to end.
func TestLoadedTasksBuildAndVerify(t *testing.T) {
	p, err := BuiltinPack()
	if err != nil {
		t.Fatalf("BuiltinPack: %v", err)
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	reg, err := Load(data)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, task := range reg.Tasks() {
		env, err := task.BuildEnv()
		if err != nil {
			t.Errorf("task %s: BuildEnv: %v", task.ID, err)
			continue
		}
		if env.Verify() {
			t.Errorf("task %s verifies on a fresh environment", task.ID)
		}
	}
}
