// Package textrec reads the line-oriented text formats of graphs, action
// logs and learned parameters: one record per line, its fields separated
// by white space, with blank lines and '#' comments skipped.
package textrec

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Scan calls fn with the number and fields of each record line of r, in
// order. The fields are split as strings.Fields splits them, but without
// allocating, and are valid only during the call. An error from fn stops
// the scan and is returned as "<pkg>: line N: <error>".
func Scan(r io.Reader, pkg string, fn func(line int, f []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var buf [4]string
	for lineNo := 1; sc.Scan(); lineNo++ {
		f := buf[:0]
		for field, rest := next(sc.Text()); field != ""; field, rest = next(rest) {
			f = append(f, field)
		}
		if len(f) == 0 || f[0][0] == '#' {
			continue
		}
		if err := fn(lineNo, f); err != nil {
			return fmt.Errorf("%s: line %d: %w", pkg, lineNo, err)
		}
	}
	return sc.Err()
}

// next returns the first field of s and the text after it, or "" when s
// holds no field. ASCII text takes the byte loops; a non-ASCII byte falls
// back to decoding runes.
func next(s string) (field, rest string) {
	i := 0
	for i < len(s) && asciiSpace[s[i]] {
		i++
	}
	j := i
	for j < len(s) && s[j] < utf8.RuneSelf && !asciiSpace[s[j]] {
		j++
	}
	if j < len(s) && s[j] >= utf8.RuneSelf {
		if i = strings.IndexFunc(s, func(r rune) bool { return !unicode.IsSpace(r) }); i < 0 {
			return "", ""
		}
		if j = strings.IndexFunc(s[i:], unicode.IsSpace); j < 0 {
			return s[i:], ""
		}
		j += i
	}
	return s[i:j], s[j:]
}

var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}
