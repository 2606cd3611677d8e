package ihr

import (
	"context"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/rov"
)

// BuildFullFlood is BuildCtx with every flood settling every AS, as
// builds did before floods were restricted to the vantage points'
// need-set: the reference that external tests compare BuildCtx with.
func BuildFullFlood(ctx context.Context, cfg Config) (*Dataset, error) {
	return build(ctx, cfg, false)
}

// Classify is a build's classification stage: each origination's RPKI
// and IRR status, from one prefix-ordered walk per worker share.
func Classify(ctx context.Context, origs []astopo.Origination, rpkiIx, irrIx *rov.Index, workers int) (rpkiS, irrS []rov.Status, err error) {
	statuses, err := classify(ctx, origs, rpkiIx, irrIx, workers)
	for _, st := range statuses {
		rpkiS, irrS = append(rpkiS, st.rpki), append(irrS, st.irr)
	}
	return rpkiS, irrS, err
}
