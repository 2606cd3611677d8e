package ihr

import "context"

// BuildFullFlood is BuildCtx with every flood settling every AS, as
// builds did before floods were restricted to the vantage points'
// need-set: the reference that external tests compare BuildCtx with.
func BuildFullFlood(ctx context.Context, cfg Config) (*Dataset, error) {
	return build(ctx, cfg, false)
}
