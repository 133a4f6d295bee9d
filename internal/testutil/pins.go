package testutil

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"testing"
)

// pinsMu serializes the read-modify-write of a pin table under -update.
var pinsMu sync.Mutex

// Pin fails the test unless every field of got equals the value recorded for
// it in row of the pin table at path, bit for bit; each mismatch names the
// row and the field. Under -update it first rewrites those fields, keeping
// every other row and field of the table.
//
// A pin table is a JSON object of rows, each an object of fields, written in
// sorted order with two-space indents, so a rewrite is deterministic and its
// diff shows exactly the cells that moved. A field is a float64 (written in
// its shortest round-trip form, so it reads back to the same bits), an
// integer or a string (a uint64 hash as "0x…": a JSON number is a float64
// to most readers).
func Pin(t testing.TB, path, row string, got map[string]any) {
	t.Helper()
	pinsMu.Lock()
	defer pinsMu.Unlock()
	table := map[string]map[string]json.RawMessage{}
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &table)
	}
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if *update {
		if table[row] == nil {
			table[row] = map[string]json.RawMessage{}
		}
		for f, v := range got {
			table[row][f] = marshalPin(t, v)
		}
		for _, fields := range table {
			for f, v := range fields {
				fields[f] = json.RawMessage(canonicalPin(t, v))
			}
		}
		out, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		//cadyvet:volatile regenerates a checked-in test fixture; no crash recovery reads it
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fields := make([]string, 0, len(got))
	for f := range got {
		fields = append(fields, f)
	}
	slices.Sort(fields)
	for _, f := range fields {
		g := string(marshalPin(t, got[f]))
		want, ok := table[row][f]
		switch {
		case !ok:
			t.Errorf("%s: %s %s = %s, none recorded (rerun with -update to record it)", path, row, f, g)
		case canonicalPin(t, want) != g:
			t.Errorf("%s: %s %s = %s, recorded %s", path, row, f, g, want)
		}
	}
}

func marshalPin(t testing.TB, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// canonicalPin re-encodes a recorded value the way marshalPin writes one, so
// a number spelled otherwise (1e3, 1000.0, a 17-digit float from jq) compares
// by its value and -update rewrites it in one spelling.
func canonicalPin(t testing.TB, raw json.RawMessage) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return string(marshalPin(t, v))
}
