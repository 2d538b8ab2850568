package storage

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestFrameJournalRecordRoundTrip(t *testing.T) {
	payload := []byte(`{"seq":1,"program":"p."}`)
	line := FrameJournalRecord(payload)
	if line[len(line)-1] != '\n' {
		t.Fatalf("framed record not newline-terminated: %q", line)
	}
	got, err := ParseJournalLine(line[:len(line)-1], 1)
	if err != nil {
		t.Fatalf("ParseJournalLine: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
}

// A line that is not framed — bare JSON, as journals older than the
// checksummed format held — is a bad record like any other.
func TestParseJournalLineRejectsUnframed(t *testing.T) {
	for _, line := range []string{
		`{"seq":3,"fired":2}`, "", "v1", "v1 0000000 {}", "v2 00000000 {}", "v1 0000000g {}", "v1 00000000{}",
		"v1 2C6D6A2B {}", // upper-case digits: the writer never produces them
	} {
		if got, err := ParseJournalLine([]byte(line), 1); err == nil {
			t.Errorf("line %q accepted as %q", line, got)
		}
	}
}

func TestParseJournalLineChecksumMismatch(t *testing.T) {
	line := FrameJournalRecord([]byte(`{"seq":1}`))
	// Flip a payload byte.
	line[len(line)-3]++
	_, err := ParseJournalLine(line[:len(line)-1], 7)
	var ce *ChecksumError
	if !errors.As(err, &ce) || ce.Line != 7 {
		t.Fatalf("err = %v, want ChecksumError at line 7", err)
	}
}

func validateJSON(b []byte) error {
	var v map[string]any
	return json.Unmarshal(b, &v)
}

func TestReadJournalSkipsBlankLines(t *testing.T) {
	var sb strings.Builder
	sb.Write(FrameJournalRecord([]byte(`{"seq":1}`)))
	sb.WriteString("\n") // blank line, skipped
	sb.Write(FrameJournalRecord([]byte(`{"seq":2}`)))
	var seen []string
	n, good, err := ReadJournal(strings.NewReader(sb.String()), func(p []byte) error {
		seen = append(seen, string(p))
		return validateJSON(p)
	})
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if n != 2 || good != int64(sb.Len()) || strings.Join(seen, " ") != `{"seq":1} {"seq":2}` {
		t.Fatalf("records = %d %q, good = %d (want 2, %d)", n, seen, good, sb.Len())
	}
}

func TestReadJournalTornAndCorruptTails(t *testing.T) {
	rec1 := string(FrameJournalRecord([]byte(`{"seq":1}`)))
	rec2 := string(FrameJournalRecord([]byte(`{"seq":2}`)))
	cases := []struct {
		name string
		data string
		want int   // surviving records
		good int64 // valid prefix length
		torn bool  // else corrupt-middle
	}{
		{"torn mid-line", rec1 + rec2[:len(rec2)/2], 1, int64(len(rec1)), true},
		{"bad crc at tail", rec1 + "v1 00000000 " + `{"seq":2}` + "\n", 1, int64(len(rec1)), true},
		{"legacy torn json tail", rec1 + `{"seq":2`, 1, int64(len(rec1)), true},
		{"complete json, no newline", rec1 + `{"seq":2}`, 1, int64(len(rec1)), true},
		{"empty file", "", 0, 0, false},
		{"corrupt middle", rec1 + "v1 00000000 " + `{"seq":2}` + "\n" + rec2, 1, int64(len(rec1)), false},
		{"unframed middle", rec1 + `{"seq":2}` + "\n" + rec2, 1, int64(len(rec1)), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, good, err := ReadJournal(strings.NewReader(tc.data), validateJSON)
			if n != tc.want || good != tc.good {
				t.Errorf("records = %d good = %d, want %d %d", n, good, tc.want, tc.good)
			}
			var torn *TornTailError
			var corrupt *CorruptRecordError
			switch {
			case tc.torn:
				if !errors.As(err, &torn) {
					t.Errorf("err = %v, want TornTailError", err)
				} else if torn.Offset != tc.good {
					t.Errorf("torn offset = %d, want %d", torn.Offset, tc.good)
				}
			case tc.data == "":
				if err != nil {
					t.Errorf("err = %v, want nil", err)
				}
			default:
				if !errors.As(err, &corrupt) {
					t.Errorf("err = %v, want CorruptRecordError", err)
				}
			}
		})
	}
}
