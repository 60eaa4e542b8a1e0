package nn

import "math"

// Adam implements the Adam adaptive learning-rate optimizer (Kingma & Ba,
// 2014), the optimizer the paper selects over plain SGD (§5).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	params []*Param
	m      [][]float64 // first-moment estimates
	v      [][]float64 // second-moment estimates
	t      int         // step count
}

// NewAdam creates an Adam optimizer over the given parameters with the
// standard defaults (β1=0.9, β2=0.999, ε=1e-8) and the supplied learning
// rate (the paper uses 0.001, Table 2).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Epsilon: 1e-8,
		params:  params,
		m:       make([][]float64, len(params)),
		v:       make([][]float64, len(params)),
	}
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Value))
		a.v[i] = make([]float64, len(p.Value))
	}
	return a
}

// Step applies one Adam update using the gradients currently accumulated in
// the parameters, then leaves the gradients untouched (call ZeroGrad to
// reset them). NaN or infinite gradients are skipped defensively so a single
// bad rollout cannot destroy the model.
func (a *Adam) Step() {
	a.t++
	// Reciprocal bias corrections keep the hot loop at one division per
	// element instead of three.
	invBc1 := 1 / (1 - math.Pow(a.Beta1, float64(a.t)))
	invBc2 := 1 / (1 - math.Pow(a.Beta2, float64(a.t)))
	k := [8]float64{a.Beta1, 1 - a.Beta1, a.Beta2, 1 - a.Beta2, invBc1, invBc2, a.LR, a.Epsilon}
	for i, p := range a.params {
		adamStep(p.Value, p.Grad, a.m[i], a.v[i], &k)
	}
}

// adamStep applies one Adam update to the parameter values p from their
// gradients g and moments m and v (all of equal length), with k = {β1,
// 1-β1, β2, 1-β2, 1/bc1, 1/bc2, lr, ε}. With AVX, adamAVX takes the longest
// prefix of a multiple of four elements and adamGo, its oracle, the rest.
func adamStep(p, g, m, v []float64, k *[8]float64) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	i := 0
	if useAVX && len(p) >= 4 {
		i = len(p) &^ 3
		adamAVX(&p[0], &g[0], &m[0], &v[0], i, k)
	}
	adamGo(p[i:], g[i:], m[i:], v[i:], k)
}

// adamGo is adamStep in Go. The conversions round each product on its own,
// so no GOARCH fuses it into the add that follows.
func adamGo(p, g, m, v []float64, k *[8]float64) {
	b1, c1, b2, c2 := k[0], k[1], k[2], k[3]
	invBc1, invBc2, lr, eps := k[4], k[5], k[6], k[7]
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for j, gj := range g {
		if math.IsNaN(gj) || math.IsInf(gj, 0) {
			continue
		}
		mj := float64(b1*m[j]) + float64(c1*gj)
		vj := float64(b2*v[j]) + float64(float64(c2*gj)*gj)
		m[j], v[j] = mj, vj
		p[j] -= float64(lr*float64(mj*invBc1)) / (math.Sqrt(float64(vj*invBc2)) + eps)
	}
}

// Steps returns the number of optimizer steps taken.
func (a *Adam) Steps() int { return a.t }

// Reset clears optimizer state (moments and step count), keeping the
// parameter bindings. Used when transferring a model to a new objective so
// stale momentum does not bleed across tasks.
func (a *Adam) Reset() {
	a.t = 0
	for i := range a.m {
		clear(a.m[i])
		clear(a.v[i])
	}
}

// SGD is a plain stochastic-gradient-descent optimizer, retained as the
// comparison point the paper mentions when motivating Adam.
type SGD struct {
	LR     float64
	params []*Param
}

// NewSGD creates an SGD optimizer with the given learning rate.
func NewSGD(params []*Param, lr float64) *SGD {
	return &SGD{LR: lr, params: params}
}

// Step applies one gradient-descent update.
func (s *SGD) Step() {
	for _, p := range s.params {
		for j, g := range p.Grad {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				continue
			}
			p.Value[j] -= s.LR * g
		}
	}
}
