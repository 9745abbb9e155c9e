package serveproto

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzBatchRequestDecode hardens the POST /v1/cells input boundary:
// DecodeBatchRequest must never panic on hostile bodies, anything it accepts
// must hold 1..MaxBatchCells cells, and an accepted request must be a
// marshal fixed point — re-encoding and re-decoding yields the same bytes,
// so no information is invented or lost crossing the boundary. The
// committed corpus under testdata/fuzz/FuzzBatchRequestDecode is replayed
// by plain `go test`; the nightly fuzz job explores beyond it.
func FuzzBatchRequestDecode(f *testing.F) {
	f.Add([]byte(`{"cells":[{"task":"t1","setting":"GUI+DMI / GPT-5 / Medium","runs":1}]}`))
	f.Add([]byte(`{"pack":"osworld-w","pack_hash":"abc","cells":[{"app":"Word","task":"t","setting":"s","runs":3},{"task":"u","pack":"other"}]}`))
	f.Add([]byte(`{"cells":[]}`))                 // empty batch: rejected
	f.Add([]byte(`{"cells":null}`))               // null cells: rejected
	f.Add([]byte(`{"cells":[{}]}`))               // empty cell: envelope ok
	f.Add([]byte(`{"cells":[{"runs":-1}]} tail`)) // trailing bytes past the first value
	f.Add([]byte(`{"cells":[{"runs":1e3}]}`))     // non-integer runs: rejected
	f.Add([]byte(`{"cells":`))                    // truncated
	f.Add([]byte(`[{"task":"t"}]`))               // wrong shape
	f.Add([]byte(`null`))                         // null body
	f.Add([]byte("\x00\x01\x02"))                 // binary garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeBatchRequest(bytes.NewReader(data))
		if err != nil {
			return // rejected: exactly what hostile bodies should get
		}
		if len(req.Cells) == 0 || len(req.Cells) > MaxBatchCells {
			t.Fatalf("accepted batch with %d cells", len(req.Cells))
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode of accepted batch failed: %v", err)
		}
		again, err := DecodeBatchRequest(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v", err)
		}
		out2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("batch request is not a marshal fixed point:\n first %s\nsecond %s", out, out2)
		}
	})
}
