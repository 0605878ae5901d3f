package obs

import (
	"io"
	"strings"
	"testing"
)

// TestReadJSONLErrorsNameStreamAndLine runs every JSONL reader over a
// stream whose second line is bad: the error names the stream and the
// 1-based line (blank lines count), and a flight line with an unknown type
// names that type.
func TestReadJSONLErrorsNameStreamAndLine(t *testing.T) {
	events := func(r io.Reader) error { _, err := ReadJSONL(r); return err }
	spans := func(r io.Reader) error { _, err := ReadSpanJSONL(r); return err }
	flight := func(r io.Reader) error { _, err := ReadFlightDump(r); return err }
	for _, tc := range []struct {
		name  string
		read  func(io.Reader) error
		input string
		want  string
	}{
		{"events garbage", events, `{"seq":1,"kind":"load"}` + "\nnot json\n", "obs: jsonl line 2: "},
		{"events unknown kind", events, "\n" + `{"kind":"jump"}` + "\n", `obs: jsonl line 2: obs: unknown event kind "jump"`},
		{"spans garbage", spans, `{"seq":1,"stage":"execute"}` + "\n{\n", "obs: span jsonl line 2: "},
		{"spans after blank", spans, "\n[1]\n", "obs: span jsonl line 2: "},
		{"flight garbage", flight, `{"type":"wide","event":{"kind":"x"}}` + "\nnull}\n", "obs: flight jsonl line 2: "},
		{"flight unknown type", flight, `{"type":"span","span":{}}` + "\n" + `{"type":"sideways"}` + "\n",
			`obs: flight jsonl line 2: unknown type "sideways"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.read(strings.NewReader(tc.input))
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("err = %v, want prefix %q", err, tc.want)
			}
		})
	}
}
