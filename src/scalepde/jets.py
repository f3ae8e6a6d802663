"""Exact jet-space calculus for polynomial core functions.

Jet variables u<alpha>_<suffix> denote partial derivatives of the
dependent components u^alpha with respect to the coordinates x1..xn, t
and eta; the suffix lists coordinate labels in canonical order (spatial
axes first, then t, then eta).  Expressions are polynomials in these
variables with exact rational coefficients, stored in a canonical form
so that structural equality is mathematical equality.

The total derivative V_i treats jet variables as functions of all
coordinates, so V_i(u<a>_I) = u<a>_{I+i}.  On top of V_i the module
builds the second-order operators L = sum_b V_b V_b and
W = d/d(eta) + sum over jet variables of (laplacian substitution),
whose difference applied to a first-order core yields the filter
source s = (W - L)F.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import Field, Grid, _dealias_values, spectral_derivative


class CoreSyntaxError(ValueError):
    """Raised for malformed core-function text, with line/column info."""


def _coord_rank(label: str) -> tuple[int, int]:
    if label == "t":
        return (1, 0)
    if label == "eta":
        return (2, 0)
    return (0, int(label[1:]))


def _valid_coord(label: str, n: int, allow_eta: bool = True) -> bool:
    if label == "t":
        return True
    if label == "eta":
        return allow_eta
    m = re.fullmatch(r"x([0-9]+)", label)
    return bool(m) and 1 <= int(m.group(1)) <= n


def spatial_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class JetIndex:
    """One jet variable: component number (1-based) plus derivative labels."""

    component: int
    derivs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.component < 1:
            raise ValueError("components are numbered from 1")
        ordered = tuple(sorted(self.derivs, key=_coord_rank))
        object.__setattr__(self, "derivs", ordered)

    @property
    def order(self) -> int:
        return len(self.derivs)

    def with_deriv(self, label: str) -> "JetIndex":
        return JetIndex(self.component, self.derivs + (label,))

    def sort_key(self):
        return (
            self.component,
            len(self.derivs),
            tuple(_coord_rank(d) for d in self.derivs),
        )

    def __str__(self) -> str:
        base = f"u{self.component}"
        return base + ("_" + "".join(self.derivs) if self.derivs else "")


@dataclass(frozen=True)
class JetMonomial:
    """Rational coefficient times a product of jet variables."""

    coeff: Fraction
    factors: tuple[JetIndex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        ordered = tuple(sorted(self.factors, key=JetIndex.sort_key))
        object.__setattr__(self, "factors", ordered)

    def key(self):
        return tuple(f.sort_key() for f in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return str(self.coeff)
        body = "*".join(str(f) for f in self.factors)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return "-" + body
        return f"{self.coeff}*{body}"


def _canonical(monomials) -> tuple[JetMonomial, ...]:
    merged: dict[tuple, JetMonomial] = {}
    for m in monomials:
        k = m.key()
        if k in merged:
            merged[k] = JetMonomial(merged[k].coeff + m.coeff, m.factors)
        else:
            merged[k] = m
    kept = [m for m in merged.values() if m.coeff != 0]
    kept.sort(key=JetMonomial.key)
    return tuple(kept)


@dataclass(frozen=True)
class JetExpr:
    """Vector of jet polynomials over a fixed (n, N) jet space.

    ``terms`` holds one canonically sorted monomial tuple per output
    component.  Equality of two JetExpr values is therefore equality of
    the underlying polynomials.
    """

    n: int
    N: int
    terms: tuple[tuple[JetMonomial, ...], ...]

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.n}")
        if self.N < 1:
            raise ValueError(f"need at least one component, got N={self.N}")
        if not self.terms:
            raise ValueError("expression needs at least one output component")
        canon = tuple(_canonical(part) for part in self.terms)
        for part in canon:
            for m in part:
                for f in m.factors:
                    if f.component > self.N:
                        raise ValueError(
                            f"jet variable {f} exceeds component count N={self.N}"
                        )
                    for d in f.derivs:
                        if not _valid_coord(d, self.n):
                            raise ValueError(
                                f"jet variable {f} uses coordinate {d} "
                                f"outside n={self.n}"
                            )
        object.__setattr__(self, "terms", canon)

    @classmethod
    def zero(cls, n: int, N: int, outputs: int = 1) -> "JetExpr":
        return cls(n, N, ((),) * outputs)

    @classmethod
    def constant(cls, n: int, N: int, value) -> "JetExpr":
        return cls(n, N, ((JetMonomial(Fraction(value)),),))

    @classmethod
    def variable(cls, n: int, N: int, component: int, derivs=()) -> "JetExpr":
        idx = JetIndex(component, tuple(derivs))
        return cls(n, N, ((JetMonomial(Fraction(1), (idx,)),),))

    @classmethod
    def vector(cls, components) -> "JetExpr":
        parts = list(components)
        n, N = parts[0].n, parts[0].N
        terms = []
        for p in parts:
            if (p.n, p.N) != (n, N):
                raise ValueError("component expressions disagree on (n, N)")
            if p.num_outputs != 1:
                raise ValueError("vector() expects single-output expressions")
            terms.append(p.terms[0])
        return cls(n, N, tuple(terms))

    @property
    def num_outputs(self) -> int:
        return len(self.terms)

    def component(self, a: int) -> "JetExpr":
        """Single-output expression for output a (1-based)."""
        return JetExpr(self.n, self.N, (self.terms[a - 1],))

    @property
    def max_order(self) -> int:
        orders = [
            f.order for part in self.terms for m in part for f in m.factors
        ]
        return max(orders, default=0)

    def jet_indices(self) -> set[JetIndex]:
        return {f for part in self.terms for m in part for f in m.factors}

    @property
    def is_zero(self) -> bool:
        return all(not part for part in self.terms)

    def _binary(self, other: "JetExpr", sign: int) -> "JetExpr":
        if (self.n, self.N) != (other.n, other.N):
            raise ValueError("expressions live in different jet spaces")
        if self.num_outputs != other.num_outputs:
            raise ValueError("expressions have different output counts")
        terms = tuple(
            a + tuple(JetMonomial(sign * m.coeff, m.factors) for m in b)
            for a, b in zip(self.terms, other.terms)
        )
        return JetExpr(self.n, self.N, terms)

    def __add__(self, other: "JetExpr") -> "JetExpr":
        return self._binary(other, 1)

    def __sub__(self, other: "JetExpr") -> "JetExpr":
        return self._binary(other, -1)

    def __neg__(self) -> "JetExpr":
        return self * Fraction(-1)

    def __mul__(self, other):
        if isinstance(other, JetExpr):
            if (self.n, self.N) != (other.n, other.N):
                raise ValueError("expressions live in different jet spaces")
            if self.num_outputs != 1 or other.num_outputs != 1:
                raise ValueError("products are defined for scalar expressions")
            prods = [
                JetMonomial(a.coeff * b.coeff, a.factors + b.factors)
                for a in self.terms[0]
                for b in other.terms[0]
            ]
            return JetExpr(self.n, self.N, (tuple(prods),))
        c = Fraction(other)
        terms = tuple(
            tuple(JetMonomial(c * m.coeff, m.factors) for m in part)
            for part in self.terms
        )
        return JetExpr(self.n, self.N, terms)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_expr(self)


def format_expr(expr: JetExpr) -> str:
    """Canonical text form; components are joined by '; '."""
    parts = []
    for part in expr.terms:
        if not part:
            parts.append("0")
            continue
        pieces = []
        for i, m in enumerate(part):
            coeff, factors = m.coeff, m.factors
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(str(f) for f in factors)
            elif factors:
                body = str(mag) + "*" + "*".join(str(f) for f in factors)
            else:
                body = str(mag)
            if i == 0:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append((" - " if coeff < 0 else " + ") + body)
        parts.append("".join(pieces))
    return "; ".join(parts)


_TOKEN_RE = re.compile(
    r"(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[+\-*();])|(?P<ws>[ \t]+)|(?P<nl>\n)|(?P<bad>.)"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        piece = m.group()
        if kind == "nl":
            line += 1
            col = 1
            continue
        if kind == "ws":
            col += len(piece)
            continue
        if kind == "bad":
            raise CoreSyntaxError(
                f"line {line}, column {col}: unexpected character {piece!r}"
            )
        tokens.append(_Token(kind, piece, line, col))
        col += len(piece)
    tokens.append(_Token("end", "", line, col))
    return tokens


def _split_suffix(suffix: str, tok: _Token) -> tuple[str, ...]:
    labels = []
    pos = 0
    while pos < len(suffix):
        if suffix.startswith("eta", pos):
            labels.append("eta")
            pos += 3
        elif suffix[pos] == "t":
            labels.append("t")
            pos += 1
        elif suffix[pos] == "x":
            m = re.match(r"x([0-9]+)", suffix[pos:])
            if not m:
                raise CoreSyntaxError(
                    f"line {tok.line}, column {tok.col}: bad derivative "
                    f"suffix {suffix!r} in {tok.text!r}"
                )
            labels.append(m.group())
            pos += len(m.group())
        else:
            raise CoreSyntaxError(
                f"line {tok.line}, column {tok.col}: bad derivative "
                f"suffix {suffix!r} in {tok.text!r}"
            )
    return tuple(labels)


def _parse_jet_ident(tok: _Token, allow_eta: bool) -> JetIndex:
    m = re.fullmatch(r"u([0-9]+)(?:_([A-Za-z0-9]+))?", tok.text)
    if not m:
        raise CoreSyntaxError(
            f"line {tok.line}, column {tok.col}: unknown identifier "
            f"{tok.text!r} (jet variables look like u1, u2_x1t)"
        )
    component = int(m.group(1))
    if component < 1:
        raise CoreSyntaxError(
            f"line {tok.line}, column {tok.col}: components are numbered "
            f"from 1, got {tok.text!r}"
        )
    derivs = _split_suffix(m.group(2), tok) if m.group(2) else ()
    if not allow_eta and "eta" in derivs:
        raise CoreSyntaxError(
            f"line {tok.line}, column {tok.col}: eta derivatives are not "
            f"allowed in core functions ({tok.text!r})"
        )
    return JetIndex(component, derivs)


class _Parser:
    def __init__(self, tokens: list[_Token], allow_eta: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_eta = allow_eta
        self.indices: list[tuple[JetIndex, _Token]] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: _Token, expected: str):
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise CoreSyntaxError(
            f"line {tok.line}, column {tok.col}: expected {expected}, got {got}"
        )

    # monomial lists keep the parser independent of (n, N) inference
    def parse_components(self) -> list[list[JetMonomial]]:
        comps = [self.parse_expr()]
        while self.peek().text == ";":
            self.advance()
            comps.append(self.parse_expr())
        tok = self.peek()
        if tok.kind != "end":
            self.fail(tok, "operator or end of input")
        return comps

    def parse_expr(self) -> list[JetMonomial]:
        sign = 1
        while self.peek().text in ("+", "-"):
            if self.advance().text == "-":
                sign = -sign
        terms = [
            JetMonomial(sign * m.coeff, m.factors) for m in self.parse_term()
        ]
        while self.peek().text in ("+", "-"):
            sign = 1 if self.advance().text == "+" else -1
            terms.extend(
                JetMonomial(sign * m.coeff, m.factors) for m in self.parse_term()
            )
        return terms

    def parse_term(self) -> list[JetMonomial]:
        result = self.parse_factor()
        while self.peek().text == "*":
            self.advance()
            rhs = self.parse_factor()
            result = [
                JetMonomial(a.coeff * b.coeff, a.factors + b.factors)
                for a in result
                for b in rhs
            ]
        return result

    def parse_factor(self) -> list[JetMonomial]:
        tok = self.peek()
        if tok.text in ("+", "-"):
            self.advance()
            inner = self.parse_factor()
            if tok.text == "-":
                return [JetMonomial(-m.coeff, m.factors) for m in inner]
            return inner
        if tok.kind == "num":
            self.advance()
            return [JetMonomial(Fraction(tok.text))]
        if tok.kind == "ident":
            self.advance()
            idx = _parse_jet_ident(tok, self.allow_eta)
            self.indices.append((idx, tok))
            return [JetMonomial(Fraction(1), (idx,))]
        if tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            closing = self.peek()
            if closing.text != ")":
                self.fail(closing, "')'")
            self.advance()
            return inner
        self.fail(tok, "a number, jet variable or '('")


def parse_core(
    text: str,
    n: int | None = None,
    N: int | None = None,
    allow_eta: bool = False,
) -> JetExpr:
    """Parse core-function text into a JetExpr.

    Components are separated by ';'.  When n or N is omitted it is
    inferred from the variables that actually appear (at least 1).
    Core functions may not carry eta derivatives; pass allow_eta=True
    for general jet polynomials.
    """
    parser = _Parser(_tokenize(text), allow_eta)
    comps = parser.parse_components()
    seen_n = 0
    seen_N = 0
    for idx, tok in parser.indices:
        seen_N = max(seen_N, idx.component)
        for d in idx.derivs:
            if d.startswith("x"):
                seen_n = max(seen_n, int(d[1:]))
    if n is None:
        n = max(seen_n, 1)
    if N is None:
        N = max(seen_N, 1)
    for idx, tok in parser.indices:
        if idx.component > N:
            raise CoreSyntaxError(
                f"line {tok.line}, column {tok.col}: {tok.text!r} exceeds "
                f"component count N={N}"
            )
        for d in idx.derivs:
            if d.startswith("x") and int(d[1:]) > n:
                raise CoreSyntaxError(
                    f"line {tok.line}, column {tok.col}: {tok.text!r} uses "
                    f"spatial axis beyond n={n}"
                )
    return JetExpr(n, N, tuple(tuple(c) for c in comps))


def jet_total_derivative(expr: JetExpr, coord: str) -> JetExpr:
    """Total derivative V_coord, acting by the product rule."""
    if not _valid_coord(coord, expr.n):
        raise ValueError(f"coordinate {coord!r} is not valid for n={expr.n}")
    out = []
    for part in expr.terms:
        derived = []
        for m in part:
            for pos in range(len(m.factors)):
                factors = list(m.factors)
                factors[pos] = factors[pos].with_deriv(coord)
                derived.append(JetMonomial(m.coeff, tuple(factors)))
        out.append(tuple(derived))
    return JetExpr(expr.n, expr.N, tuple(out))


def jet_L(expr: JetExpr) -> JetExpr:
    """Second-order transport part: sum over axes of V_b(V_b(expr))."""
    total = JetExpr.zero(expr.n, expr.N, expr.num_outputs)
    for b in spatial_labels(expr.n):
        total = total + jet_total_derivative(jet_total_derivative(expr, b), b)
    return total


def jet_W(expr: JetExpr) -> JetExpr:
    """Filter-evolution operator.

    Acts on a jet polynomial without explicit coordinate dependence by
    replacing, one factor at a time, each jet variable with the
    laplacian of the field it denotes: u<a>_I -> sum_b u<a>_{I+bb}.
    Equivalently d/d(eta) along filtered families, where every jet
    variable evolves by the heat flow.
    """
    out = []
    for part in expr.terms:
        derived = []
        for m in part:
            for pos in range(len(m.factors)):
                for b in spatial_labels(expr.n):
                    factors = list(m.factors)
                    factors[pos] = factors[pos].with_deriv(b).with_deriv(b)
                    derived.append(JetMonomial(m.coeff, tuple(factors)))
        out.append(tuple(derived))
    return JetExpr(expr.n, expr.N, tuple(out))


def derive_source(core: JetExpr) -> JetExpr:
    """Filter source s = (W - L)(core) for a first-order core."""
    if core.max_order > 1:
        raise ValueError(
            f"core must be first order, found order {core.max_order}"
        )
    return jet_W(core) - jet_L(core)


def _formal_partial(part: tuple[JetMonomial, ...], var: JetIndex):
    out = []
    for m in part:
        count = m.factors.count(var)
        if count == 0:
            continue
        factors = list(m.factors)
        factors.remove(var)
        out.append(JetMonomial(m.coeff * count, tuple(factors)))
    return tuple(out)


@dataclass(frozen=True)
class FrechetTable:
    """Formal partials of a core with respect to its jet variables.

    ``zero_order[(alpha, beta)]`` is dF^alpha/du^beta and
    ``first_order[(alpha, beta, coord)]`` is dF^alpha/du^beta_coord;
    only nonzero entries are stored.
    """

    core: JetExpr
    zero_order: dict
    first_order: dict


def jet_frechet(core: JetExpr) -> FrechetTable:
    """Tabulate the nonzero Frechet coefficients of a first-order core."""
    if core.max_order > 1:
        raise ValueError(
            f"core must be first order, found order {core.max_order}"
        )
    coords = spatial_labels(core.n) + ("t",)
    zero = {}
    first = {}
    for alpha in range(1, core.num_outputs + 1):
        part = core.terms[alpha - 1]
        for beta in range(1, core.N + 1):
            d = _formal_partial(part, JetIndex(beta))
            if d:
                zero[(alpha, beta)] = JetExpr(core.n, core.N, (d,))
            for coord in coords:
                d = _formal_partial(part, JetIndex(beta, (coord,)))
                if d:
                    first[(alpha, beta, coord)] = JetExpr(core.n, core.N, (d,))
    return FrechetTable(core=core, zero_order=zero, first_order=first)


def jet_values(
    exprs, u: Field, u_t: Field | None = None
) -> dict[JetIndex, Field]:
    """Numeric values for every jet variable an expression needs.

    Component alpha maps to u.component(alpha - 1); spatial derivatives
    are spectral.  A single t-derivative reads from u_t; higher time or
    any eta derivatives cannot be formed from slice data.
    """
    if isinstance(exprs, JetExpr):
        exprs = [exprs]
    needed = set()
    for e in exprs:
        needed |= e.jet_indices()
    values: dict[JetIndex, Field] = {}
    for idx in sorted(needed, key=JetIndex.sort_key):
        t_count = idx.derivs.count("t")
        if "eta" in idx.derivs:
            raise ValueError(f"cannot evaluate eta derivative {idx} from a slice")
        if t_count > 1:
            raise ValueError(f"cannot evaluate {idx}: needs {t_count} time derivatives")
        base = u
        if t_count == 1:
            if u_t is None:
                raise ValueError(f"evaluating {idx} requires u_t")
            base = u_t
        if idx.component > base.ncomp:
            raise ValueError(
                f"jet variable {idx} exceeds field component count {base.ncomp}"
            )
        f = Field(
            base.grid,
            base.component(idx.component - 1)[np.newaxis],
            t=u.t,
            eta=u.eta,
        )
        for d in idx.derivs:
            if d.startswith("x"):
                f = spectral_derivative(f, int(d[1:]) - 1)
        values[idx] = f
    return values


def jet_evaluate(
    expr: JetExpr, jets: dict[JetIndex, Field], grid: Grid | None = None
) -> Field:
    """Evaluate a jet polynomial on numeric jet values.

    Every product of two factors is dealiased before the next factor is
    applied, matching the pseudo-spectral treatment of nonlinear terms.
    """
    if jets:
        sample = next(iter(jets.values()))
        grid, t, eta = sample.grid, sample.t, sample.eta
    elif grid is None:
        raise ValueError("grid is required to evaluate a constant expression")
    else:
        t, eta = 0.0, 0.0
    out = np.zeros((expr.num_outputs,) + grid.shape)
    for a, part in enumerate(expr.terms):
        acc = np.zeros(grid.shape)
        for m in part:
            if not m.factors:
                acc += float(m.coeff)
                continue
            prod = None
            for f in m.factors:
                if f not in jets:
                    raise ValueError(f"missing jet value for {f}")
                vals = jets[f].component(0)
                if prod is None:
                    prod = vals.copy()
                else:
                    prod = _dealias_values(grid, prod * vals)
            acc += float(m.coeff) * prod
        out[a] = acc
    return Field(grid, out, t=t, eta=eta)

