package classad

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Ad is a ClassAd: an ordered set of attribute = expression bindings.
// Attribute names are case-insensitive, per ClassAd convention. An ad
// holds a dozen bindings, so they are a list searched by folding
// comparison: no name is ever lower-cased into a new string.
type Ad struct {
	bindings []binding
}

type binding struct {
	name string // as last Set
	expr Expr
}

// NewAd returns an empty ad.
func NewAd() *Ad { return &Ad{} }

// find returns the index of name's binding, or -1.
func (a *Ad) find(name string) int {
	for i := range a.bindings {
		if strings.EqualFold(a.bindings[i].name, name) {
			return i
		}
	}
	return -1
}

// Set binds an attribute to a parsed expression.
func (a *Ad) Set(name string, e Expr) {
	if i := a.find(name); i >= 0 {
		a.bindings[i] = binding{name, e}
		return
	}
	a.bindings = append(a.bindings, binding{name, e})
}

// SetExpr parses src and binds it to name.
func (a *Ad) SetExpr(name, src string) error {
	e, err := Parse(src)
	if err != nil {
		return fmt.Errorf("classad: attribute %s: %w", name, err)
	}
	a.Set(name, e)
	return nil
}

// SetString binds a string literal.
func (a *Ad) SetString(name, s string) { a.Set(name, &litExpr{v: Str(s)}) }

// SetInt binds an integer literal.
func (a *Ad) SetInt(name string, i int64) { a.Set(name, &litExpr{v: Int(i)}) }

// SetBool binds a boolean literal.
func (a *Ad) SetBool(name string, b bool) { a.Set(name, &litExpr{v: Bool(b)}) }

// expr returns the raw expression bound to name.
func (a *Ad) expr(name string) (Expr, bool) {
	if i := a.find(name); i >= 0 {
		return a.bindings[i].expr, true
	}
	return nil, false
}

// Has reports whether the attribute is bound.
func (a *Ad) Has(name string) bool { return a.find(name) >= 0 }

// Names returns the bound attribute names (original case), sorted.
func (a *Ad) Names() []string {
	out := make([]string, 0, len(a.bindings))
	for _, b := range a.bindings {
		out = append(out, b.name)
	}
	sort.Strings(out)
	return out
}

// Eval evaluates the named attribute with this ad as MY and target
// (which may be nil) as TARGET. Missing attributes are Undefined.
func (a *Ad) Eval(name string, target *Ad) Value {
	e, ok := a.expr(name)
	if !ok {
		return Undefined
	}
	return e.Eval(&Env{My: a, Target: target})
}

// EvalString returns the attribute as a string value, or "" when it is
// not a string.
func (a *Ad) EvalString(name string, target *Ad) string {
	v := a.Eval(name, target)
	if v.Kind == KindString {
		return v.S
	}
	return ""
}

// EvalInt returns the attribute as an int64 with a default.
func (a *Ad) EvalInt(name string, target *Ad, def int64) int64 {
	v := a.Eval(name, target)
	switch v.Kind {
	case KindInt:
		return v.I
	case KindReal:
		return int64(v.R)
	default:
		return def
	}
}

// EvalBool returns the attribute as a bool; undefined/error/non-bool
// yield false.
func (a *Ad) EvalBool(name string, target *Ad) bool {
	return a.Eval(name, target).IsTrue()
}

// String renders the ad as "[ a = expr; b = expr; ]", sorted by name.
func (a *Ad) String() string {
	names := a.Names()
	parts := make([]string, len(names))
	for i, n := range names {
		e, _ := a.expr(n)
		parts[i] = fmt.Sprintf("%s = %s", n, e.String())
	}
	return "[ " + strings.Join(parts, "; ") + " ]"
}

// Clone returns a shallow copy (expressions are immutable).
func (a *Ad) Clone() *Ad { return &Ad{bindings: slices.Clone(a.bindings)} }

// Matches reports whether both ads' Requirements evaluate to true
// against each other — Condor's symmetric matchmaking test. An ad
// without a Requirements attribute imposes no constraint.
func Matches(a, b *Ad) bool {
	return halfMatch(a, b) && halfMatch(b, a)
}

func halfMatch(my, target *Ad) bool {
	e, ok := my.expr("requirements")
	if !ok {
		return true
	}
	return e.Eval(&Env{My: my, Target: target}).IsTrue()
}

// Rank evaluates my's Rank expression against target, yielding 0.0
// when absent or non-numeric. Higher is better.
func Rank(my, target *Ad) float64 {
	e, ok := my.expr("rank")
	if !ok {
		return 0
	}
	v := e.Eval(&Env{My: my, Target: target})
	n, numOK := v.Number()
	if !numOK {
		return 0
	}
	return n
}

// MatchBest returns the index of the best-ranked ad in offers that
// mutually matches request (request's Rank breaks ties by order), or
// -1 when none match. This is the matchmaker's core decision.
func MatchBest(request *Ad, offers []*Ad) int {
	best := -1
	bestRank := 0.0
	for i, offer := range offers {
		if offer == nil || !Matches(request, offer) {
			continue
		}
		r := Rank(request, offer)
		if best == -1 || r > bestRank {
			best, bestRank = i, r
		}
	}
	return best
}
