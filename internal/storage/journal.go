package storage

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"unicode/utf8"
)

// Journal record framing.
//
// A record is one line:
//
//	v1 <crc32c hex8> <payload>\n
//
// where the checksum (CRC-32 Castagnoli) covers the payload bytes. A line
// of any other shape is a bad record, classified like one that fails its
// checksum.

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

const (
	journalRecPrefix = "v1 "
	journalHeaderLen = len(journalRecPrefix) + 8 + 1 // prefix, checksum, space
	lowerHex         = "0123456789abcdef"            // of checksums, and of every escape this package writes
)

// AppendJournalRecord appends one framed record to dst — header, the
// payload that the callback appends (no newline in it), trailing newline —
// so a record is built in the buffer it is written from.
func AppendJournalRecord(dst []byte, payload func(dst []byte) []byte) []byte {
	dst = append(dst, "v1 00000000 "...)
	start := len(dst)
	dst = payload(dst)
	sum := crc32.Checksum(dst[start:], journalCRC)
	for i := 0; i < 8; i++ {
		dst[start-2-i] = lowerHex[sum&15]
		sum >>= 4
	}
	return append(dst, '\n')
}

// FrameJournalRecord wraps one record payload (no newline) in the
// checksummed journal line format, including the trailing newline.
func FrameJournalRecord(payload []byte) []byte {
	return AppendJournalRecord(make([]byte, 0, journalHeaderLen+len(payload)+1),
		func(dst []byte) []byte { return append(dst, payload...) })
}

// AppendJSONString appends s as a JSON string literal, escaping only what
// JSON requires (quote, backslash, control characters; invalid UTF-8
// becomes U+FFFD, as in encoding/json). Unlike json.Marshal it leaves <, >
// and & alone: a journal is not served as HTML, and a rule's "<-" would
// otherwise cost six bytes.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		size := 1
		if c >= utf8.RuneSelf {
			var r rune
			if r, size = utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size > 1 {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		switch {
		case c >= utf8.RuneSelf:
			dst = append(dst, `\ufffd`...)
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		default:
			if short := strings.IndexByte("\b\f\n\r\t", c); short >= 0 {
				dst = append(dst, '\\', "bfnrt"[short])
			} else {
				dst = append(dst, '\\', 'u', '0', '0', lowerHex[c>>4], lowerHex[c&15])
			}
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// ChecksumError reports a framed journal record whose payload does not
// match its checksum.
type ChecksumError struct {
	Line      int
	Want, Got uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("storage: journal line %d: checksum mismatch (record says %08x, payload is %08x)", e.Line, e.Want, e.Got)
}

// TornTailError reports a journal whose final record is incomplete or
// fails its check — the signature of a crash mid-append. Offset is the
// byte length of the valid prefix; truncating the file there recovers it.
type TornTailError struct {
	Offset int64
	Line   int
	Reason error
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("storage: journal has a torn final record at line %d (valid prefix %d bytes): %v", e.Line, e.Offset, e.Reason)
}

// CorruptRecordError reports a bad record in the middle of a journal —
// not a torn tail, since valid records follow it, so truncation cannot
// repair it.
type CorruptRecordError struct {
	Line   int
	Reason error
}

func (e *CorruptRecordError) Error() string {
	return fmt.Sprintf("storage: corrupted journal record at line %d: %v", e.Line, e.Reason)
}

// ParseJournalLine returns the payload of one journal line (without its
// trailing newline) after verifying its frame and checksum. line numbers
// error messages.
func ParseJournalLine(data []byte, line int) ([]byte, error) {
	if len(data) < journalHeaderLen || string(data[:len(journalRecPrefix)]) != journalRecPrefix || data[journalHeaderLen-1] != ' ' {
		return nil, fmt.Errorf("storage: journal line %d: malformed record header", line)
	}
	var want uint32
	for _, c := range data[len(journalRecPrefix) : journalHeaderLen-1] {
		nibble := strings.IndexByte(lowerHex, c)
		if nibble < 0 {
			return nil, fmt.Errorf("storage: journal line %d: bad checksum field", line)
		}
		want = want<<4 | uint32(nibble)
	}
	payload := data[journalHeaderLen:]
	if got := crc32.Checksum(payload, journalCRC); got != want {
		return nil, &ChecksumError{Line: line, Want: want, Got: got}
	}
	return payload, nil
}

// ReadJournal reads all records from r, handing each payload that passes
// its frame check to accept, which vets and consumes it (e.g. decodes it as
// a journal entry); nil accepts everything. It returns the number of
// records in the longest valid prefix and that prefix's byte length.
//
// A record that fails its check, or that accept refuses, is classified by
// position: if it is the last thing in the stream (including a final line
// with no newline) the error is a *TornTailError and the caller may
// truncate to Offset; if valid data follows, the error is a
// *CorruptRecordError and the journal is genuinely damaged. Empty lines are
// skipped.
func ReadJournal(r io.Reader, accept func(payload []byte) error) (records int, good int64, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	line := 0
	for {
		data, err := br.ReadBytes('\n')
		if len(data) == 0 {
			if err == io.EOF {
				return records, good, nil
			}
			if err != nil {
				return records, good, fmt.Errorf("storage: read journal: %w", err)
			}
		}
		line++
		complete := err == nil
		if err != nil && err != io.EOF {
			return records, good, fmt.Errorf("storage: read journal: %w", err)
		}
		text := bytes.TrimSuffix(data, []byte("\n"))
		var recErr error
		if !complete {
			recErr = fmt.Errorf("record has no trailing newline")
		}
		if recErr == nil && len(text) > 0 {
			var payload []byte
			payload, recErr = ParseJournalLine(text, line)
			if recErr == nil && accept != nil {
				recErr = accept(payload)
			}
		}
		if recErr != nil {
			_, peekErr := br.Peek(1)
			if last := !complete || peekErr == io.EOF; last {
				return records, good, &TornTailError{Offset: good, Line: line, Reason: recErr}
			}
			return records, good, &CorruptRecordError{Line: line, Reason: recErr}
		}
		good += int64(len(data))
		if len(text) > 0 {
			records++
		}
	}
}
