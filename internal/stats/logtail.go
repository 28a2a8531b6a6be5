package stats

import "math"

// The LogTail methods compute the natural logarithm of a distribution's
// tail function directly. The φ detector (§5.3) needs ln P_later far
// into the upper tail, where Tail(x) underflows to zero in float64 but
// its logarithm is still perfectly representable — without them, the
// suspicion level of a crashed process would saturate instead of
// accruing, violating Property 1 in practice. Each returns −Inf where
// the tail is exactly zero and 0 where the tail is 1.

// LogTail returns ln P(X > x) for the normal distribution. For moderate
// arguments it uses erfc directly; past the point where erfc would
// underflow it switches to the standard asymptotic expansion
//
//	ln Q(z) ≈ −z²/2 − ln(z·√(2π)) + ln(1 − 1/z² + 3/z⁴)
//
// which is accurate to better than 1e-6 relative error for z > 8.
func (d Normal) LogTail(x float64) float64 {
	if d.Sigma <= 0 {
		if x < d.Mu {
			return 0
		}
		return math.Inf(-1)
	}
	z := (x - d.Mu) / d.Sigma
	if z < 8 {
		return math.Log(0.5 * math.Erfc(z/math.Sqrt2))
	}
	z2 := z * z
	correction := 1 - 1/z2 + 3/(z2*z2)
	return -z2/2 - math.Log(z*math.Sqrt(2*math.Pi)) + math.Log(correction)
}

// LogTail returns ln P(X > x) = −x/mean for the exponential distribution.
func (d Exponential) LogTail(x float64) float64 {
	if x < 0 {
		return 0
	}
	if d.MeanValue <= 0 {
		return math.Inf(-1)
	}
	return -x / d.MeanValue
}

// LogTail returns ln P(X > x) for the Erlang distribution, computed in
// log space with a streaming log-sum-exp over the truncated Poisson
// series, so it remains finite for arbitrarily large x and needs no
// scratch: the running maximum rescales the partial sum whenever a
// larger term arrives, one exp per term either way.
func (d Erlang) LogTail(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if d.K < 1 || d.Lambda <= 0 {
		return math.Inf(-1)
	}
	lx := d.Lambda * x
	loglx := math.Log(lx)
	// log term_n = n·ln(λx) − lnΓ(n+1); term_0 = 0 seeds the sum.
	maxLog, sum := 0.0, 1.0
	lgamma := 0.0 // ln(0!) = 0
	for n := 1; n < d.K; n++ {
		lgamma += math.Log(float64(n))
		lg := float64(n)*loglx - lgamma
		if lg > maxLog {
			sum = sum*math.Exp(maxLog-lg) + 1
			maxLog = lg
		} else {
			sum += math.Exp(lg - maxLog)
		}
	}
	return -lx + maxLog + math.Log(sum)
}
