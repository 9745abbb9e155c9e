package serveproto

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// sessionRequestKey reports whether key names a SessionRequest field the way
// encoding/json matches object keys to fields: by json tag, ignoring case.
func sessionRequestKey(key string) bool {
	rt := reflect.TypeOf(SessionRequest{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if strings.EqualFold(key, name) {
			return true
		}
	}
	return false
}

// FuzzSessionRequestDecode hardens the POST /v1/cells input boundary:
// DecodeSessionRequest must never panic on hostile bodies, must refuse an
// object carrying any key that is not a SessionRequest field (the retired
// {"cells":[...]} envelope included), and an accepted request must be a
// marshal fixed point — re-encoding and re-decoding yields the same request,
// so no information is invented or lost crossing the boundary. The
// committed corpus under testdata/fuzz/FuzzSessionRequestDecode is replayed
// by plain `go test`; the nightly fuzz job explores beyond it.
func FuzzSessionRequestDecode(f *testing.F) {
	f.Add([]byte(`{"task":"t1","setting":"GUI+DMI / GPT-5 / Medium","runs":1}`))
	f.Add([]byte(`{"app":"Word","task":"t","setting":"s","runs":3,"pack":"osworld-w","pack_hash":"abc"}`))
	f.Add([]byte(`{"cells":[{"task":"t","setting":"s","runs":1}]}`)) // the retired envelope: rejected
	f.Add([]byte(`{"TASK":"t","Runs":2}`))                           // keys match fields case-insensitively
	f.Add([]byte(`{}`))                                              // empty cell: decodes, fails later
	f.Add([]byte(`{"runs":-1} tail`))                                // trailing bytes past the first value
	f.Add([]byte(`{"runs":1e3}`))                                    // non-integer runs: rejected
	f.Add([]byte(`{"task":`))                                        // truncated
	f.Add([]byte(`[{"task":"t"}]`))                                  // wrong shape
	f.Add([]byte(`null`))                                            // null body
	f.Add([]byte("\x00\x01\x02"))                                    // binary garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSessionRequest(bytes.NewReader(data))
		if err != nil {
			return // rejected: exactly what hostile bodies should get
		}
		var keys map[string]json.RawMessage
		if json.NewDecoder(bytes.NewReader(data)).Decode(&keys) == nil {
			for key := range keys {
				if !sessionRequestKey(key) {
					t.Fatalf("accepted a body with unknown field %q: %q", key, data)
				}
			}
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode of accepted request failed: %v", err)
		}
		again, err := DecodeSessionRequest(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode of re-encoded request %s failed: %v", out, err)
		}
		if again != req {
			t.Fatalf("session request is not a marshal fixed point:\n first %+v\nsecond %+v", req, again)
		}
	})
}
