// Package textrec reads the line-oriented text formats of graphs and
// action logs: one record per line, its fields separated by white space,
// with blank lines and '#' comments skipped.
//
// A Cursor holds the whole input in one buffer and walks it once: Next
// steps to the next record line and Field hands out that line's fields
// one at a time, as slices of the buffer, so nothing is allocated per line.
// ParseInt32 and ParseFloat convert a field in place, bit-identical to
// strconv.
package textrec

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Cursor walks the record lines of one text input. Fields are split as
// strings.Fields splits them: on every Unicode white-space rune.
type Cursor struct {
	buf        []byte
	start, pos int // the current line's first byte and the next to read
	end        int // the current line's end: its '\n', or len(buf)
	line       int // the current line's number, from 1
	pkg        string
}

// Read reads r to its end and returns a cursor before its first line.
// pkg prefixes the errors of Errorf. The cursor, and so every field it
// hands out, holds the one buffer the input was read into: a reader that
// keeps only converted values leaves nothing of the text behind.
func Read(r io.Reader, pkg string) (*Cursor, error) {
	size := 512
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() < math.MaxInt {
			size = int(fi.Size()) + 1 // +1 lets the final Read see EOF without growing
		}
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkg, err)
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
	return &Cursor{buf: buf, end: -1, pkg: pkg}, nil
}

// Records bounds the record lines left past the current one for a format
// whose records take at least minBytes bytes with their newline. Readers
// size their output by it, so a slice sized from it stays within a small
// constant of the input's length.
func (c *Cursor) Records(minBytes int) int {
	rest := c.buf[min(c.end+1, len(c.buf)):]
	return min(bytes.Count(rest, []byte{'\n'})+1, (len(rest)+1)/minBytes)
}

// Next steps to the next record line: a line with a field whose first
// field does not start with '#'. It reports false at the end of input.
func (c *Cursor) Next() bool {
	for c.end < len(c.buf) {
		c.start = c.end + 1
		c.line++
		if c.start >= len(c.buf) {
			c.end = len(c.buf)
			return false
		}
		if i := bytes.IndexByte(c.buf[c.start:], '\n'); i >= 0 {
			c.end = c.start + i
		} else {
			c.end = len(c.buf)
		}
		c.pos = c.skipSpace(c.start)
		if c.pos < c.end && c.buf[c.pos] != '#' {
			return true
		}
	}
	return false
}

// Field returns the current record's next field, or nil when the record
// has no more. The bytes alias the cursor's buffer.
func (c *Cursor) Field() []byte {
	line := c.buf[:c.end]
	i := c.skipSpace(c.pos)
	j := i
	for j < len(line) {
		if b := line[j]; b-'!' < utf8.RuneSelf-'!' {
			j++ // printable ASCII, never space: the bulk of every field
		} else if b < utf8.RuneSelf {
			if asciiSpace[b] {
				break
			}
			j++
		} else if r, n := utf8.DecodeRune(line[j:]); unicode.IsSpace(r) {
			break
		} else {
			j += n
		}
	}
	c.pos = j
	if i == j {
		return nil
	}
	return line[i:j]
}

// skipSpace returns the index of the first byte at or after i on the
// current line that does not start a white-space rune.
func (c *Cursor) skipSpace(i int) int {
	line := c.buf[:c.end]
	for i < len(line) {
		if b := line[i]; b < utf8.RuneSelf {
			if !asciiSpace[b] {
				break
			}
			i++
		} else if r, n := utf8.DecodeRune(line[i:]); unicode.IsSpace(r) {
			i += n
		} else {
			break
		}
	}
	return i
}

// Record returns the current record's fields joined by single spaces,
// for error messages.
func (c *Cursor) Record() string {
	return strings.Join(strings.Fields(string(c.buf[c.start:c.end])), " ")
}

// Errorf formats an error about the current record as
// "<pkg>: line N: <message>". It wraps what a %w verb names.
func (c *Cursor) Errorf(format string, args ...any) error {
	return fmt.Errorf("%s: line %d: "+format, append([]any{c.pkg, c.line}, args...)...)
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// ParseInt32 returns strconv.ParseInt(string(b), 10, 32) as an int32:
// the same value and the same error. Up to nine plain digits, which
// cannot overflow, are converted in place; anything else goes to strconv.
func ParseInt32(b []byte) (int32, error) {
	if n, ok := digits9(b); ok {
		return n, nil
	}
	n, err := strconv.ParseInt(str(b), 10, 32)
	return int32(n), err
}

// digits9 returns the value of b when b is one to nine decimal digits.
func digits9(b []byte) (int32, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := int32(0)
	for _, d := range b {
		if d -= '0'; d > 9 {
			return 0, false
		}
		n = n*10 + int32(d)
	}
	return n, true
}

// ParseFloat returns strconv.ParseFloat(string(b), 64): the same bits
// and the same error. A plain decimal — at most 19 digits with at most
// one '.', and a mantissa below 2^53 — is converted in place: the
// mantissa m and 10^k, for its k fraction digits, are then exact float64
// values, so m / 10^k is one correctly rounded IEEE division, which is
// the correctly rounded decimal strconv returns. Anything else (a sign,
// an exponent, a hexadecimal or special value, a longer mantissa, a
// syntax error) goes to strconv.
func ParseFloat(b []byte) (float64, error) {
	var m uint64
	i := 0
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	point, frac := i, 0
	if i < len(b) && b[i] == '.' {
		for i++; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		frac = i - point - 1
	}
	// Past 19 digits m may have wrapped; the digit count refuses it first.
	if digits := point + frac; i == len(b) && digits > 0 && digits <= 19 && m < 1<<53 {
		return float64(m) / pow10[frac], nil
	}
	return strconv.ParseFloat(str(b), 64)
}

// pow10 holds 10^k for every k ParseFloat divides by; each is exact.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// str views b as a string without copying. strconv keeps no reference to
// its argument past the call: its errors copy the text they quote.
func str(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
