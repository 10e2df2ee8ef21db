// Package relfile reads and writes the CAIDA AS-relationship file
// format the community standardized on after Gao's work:
//
//	# comment
//	<provider>|<customer>|-1
//	<peer>|<peer>|0
//	<sibling>|<sibling>|1
//
// Every consumer of the format in the tree — the asgraph serializer,
// the caida dataset source, policyscope inferrel, and the inference scorer —
// goes through this package so the dialect is defined exactly once.
// The reader is tolerant: comment and blank lines are skipped, and
// trailing |-separated fields after the relationship code (CAIDA
// serial-2 appends an inference source) are ignored.
package relfile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/policyscope/policyscope/internal/bgp"
)

// Relationship codes used by the file format.
const (
	// CodeProviderCustomer marks "A is B's provider".
	CodeProviderCustomer = -1
	// CodePeer marks a peer-to-peer edge (written smaller ASN first).
	CodePeer = 0
	// CodeSibling marks a sibling edge (written smaller ASN first).
	CodeSibling = 1
)

// Record is one relationship line. Its meaning depends on Code: for
// CodeProviderCustomer, A is the provider and B the customer; for
// CodePeer and CodeSibling the edge is symmetric and canonical files
// put the smaller ASN in A.
type Record struct {
	A, B bgp.ASN
	Code int
	// Line is the 1-based source line the record was parsed from
	// (0 for synthesized records).
	Line int
}

// String renders the record as its file line (without newline).
func (r Record) String() string { return fmt.Sprintf("%d|%d|%d", r.A, r.B, r.Code) }

// Read parses an a|b|rel stream into records in file order.
func Read(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("relfile: line %d: %w", lineNo, err)
		}
		rec.Line = lineNo
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// parseLine parses one non-comment line.
func parseLine(line string) (Record, error) {
	parts := strings.Split(line, "|")
	if len(parts) < 3 {
		return Record{}, fmt.Errorf("want a|b|rel, got %q", line)
	}
	a, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("bad ASN %q", parts[0])
	}
	b, err := strconv.ParseUint(parts[1], 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("bad ASN %q", parts[1])
	}
	code, err := strconv.Atoi(parts[2])
	if err != nil {
		return Record{}, fmt.Errorf("bad code %q", parts[2])
	}
	switch code {
	case CodeProviderCustomer, CodePeer, CodeSibling:
	default:
		return Record{}, fmt.Errorf("unknown relationship code %d", code)
	}
	return Record{A: bgp.ASN(a), B: bgp.ASN(b), Code: code}, nil
}

// Write serializes records in the given order, one line each, and
// reports the bytes written.
func Write(w io.Writer, recs []Record) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	for _, rec := range recs {
		n, err := fmt.Fprintf(bw, "%d|%d|%d\n", rec.A, rec.B, rec.Code)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}
