package simulate

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzLoadScenario feeds LoadScenario the bytes POST /whatif hands it
// straight off a request body. It must never panic, and whatever it
// accepts must survive a marshal / re-load round trip unchanged — the
// same scenario is what a sweep coordinator re-serializes to workers.
// The committed corpus under testdata/fuzz/FuzzLoadScenario holds one
// input per event kind plus malformed shapes.
func FuzzLoadScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := LoadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		again, err := LoadScenario(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-marshalled scenario rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("round trip changed the scenario:\n first %+v\nsecond %+v\n  wire %s", sc, again, out)
		}
	})
}
