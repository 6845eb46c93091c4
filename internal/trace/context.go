package trace

import "context"

type ctxKey struct{}

// NewContext returns ctx carrying s. A nil span returns ctx unchanged
// (no allocation), so untraced requests never pay for the context hop.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil — safe to call
// with a nil or span-free context, and composes with the nil-receiver
// span API: trace.FromContext(ctx).Child("x") is always valid.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
