package ihr

import (
	"bufio"
	"fmt"
	"io"
)

// WritePrefixOriginCSV exports the prefix-origin dataset in the layout
// the Internet Health Report's API returns:
// "prefix,origin_asn,rpki_status,irr_status".
func (d *Dataset) WritePrefixOriginCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "prefix,origin_asn,rpki_status,irr_status"); err != nil {
		return err
	}
	for _, po := range d.PrefixOrigins {
		if _, err := fmt.Fprintf(bw, "%s,%d,%s,%s\n", po.Prefix, po.Origin, po.RPKI, po.IRR); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTransitCSV exports the transit dataset:
// "prefix,origin_asn,transit_asn,hegemony,rpki_status,irr_status,from_customer".
func (d *Dataset) WriteTransitCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "prefix,origin_asn,transit_asn,hegemony,rpki_status,irr_status,from_customer"); err != nil {
		return err
	}
	for _, tr := range d.Transits {
		if _, err := fmt.Fprintf(bw, "%s,%d,%d,%.6f,%s,%s,%t\n",
			tr.Prefix, tr.Origin, tr.Transit, tr.Hegemony, tr.RPKI, tr.IRR, tr.FromCustomer); err != nil {
			return err
		}
	}
	return bw.Flush()
}
