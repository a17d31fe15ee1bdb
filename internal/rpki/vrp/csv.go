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
// on the ASN optional). Rows may come in any order, but the set handed
// back is always built in Compare order — rows that arrive so (WriteCSV
// and the validators' exports do) build it directly, anything else is
// rebuilt from its own All — because that lays the tree's nodes out in
// memory the way a walk visits them. An index frozen from the set
// (IndexOf) inherits the layout, and the collector's mark phase walks
// it on every cycle: over a 300 000-VRP tree grown in shuffled order a
// cycle takes three times as long, a fifth more CPU for a serving
// daemon under load.
func ReadCSV(r io.Reader) (*Set, error) {
	s := NewSet()
	sc := bufio.NewScanner(r)
	line := 0
	inOrder := true
	var last VRP
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if line == 1 && strings.HasPrefix(strings.ToLower(text), "prefix,") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("vrp: line %d: want 3 fields, got %d", line, len(parts))
		}
		prefix, err := netip.ParsePrefix(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("vrp: line %d: %w", line, err)
		}
		maxLen, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("vrp: line %d: bad maxLength: %w", line, err)
		}
		asnText := strings.TrimPrefix(strings.TrimSpace(strings.ToUpper(parts[2])), "AS")
		asn, err := strconv.ParseUint(asnText, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("vrp: line %d: bad ASN: %w", line, err)
		}
		v := VRP{Prefix: prefix.Masked(), MaxLength: maxLen, ASN: uint32(asn)}
		if err := s.Add(v); err != nil {
			return nil, fmt.Errorf("vrp: line %d: %w", line, err)
		}
		inOrder = inOrder && Compare(last, v) <= 0
		last = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inOrder {
		return FromVRPs(s.All())
	}
	return s, nil
}
