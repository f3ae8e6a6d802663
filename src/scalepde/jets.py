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

import bisect
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grid import Grid, _dealias_values, _finite, _irfft, _rfft


class CoreSyntaxError(ValueError):
    """Raised for malformed core-function text, with line/column info."""


def _shown(text: str, width: int = 24) -> str:
    """repr of a piece of core text, cut short for an error message."""
    return repr(text) if len(text) <= width else repr(text[:width]) + "..."


def _coord_rank(label: str) -> tuple[int, int]:
    if label == "t":
        return (1, 0)
    if label == "eta":
        return (2, 0)
    return (0, int(label[1:]))


def _coord_reach(label: str) -> float:
    """The least spatial dimension a coordinate label is valid in: 0 for t
    and eta, k for x<k> with k >= 1, infinite for any other label."""
    if label in ("t", "eta"):
        return 0
    m = re.fullmatch(r"x([0-9]+)", label)
    return int(m.group(1)) if m and int(m.group(1)) >= 1 else math.inf


def _valid_coord(label: str, n: int) -> bool:
    return _coord_reach(label) <= n


def spatial_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class JetIndex:
    """One jet variable: component number (1-based) plus derivative labels."""

    component: int
    derivs: tuple[str, ...] = ()
    # made once, from the two fields above, and left out of eq and hash
    _key: tuple = field(init=False, repr=False, compare=False)
    _reach: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.component < 1:
            raise ValueError("components are numbered from 1")
        ordered = tuple(sorted(self.derivs, key=_coord_rank))
        object.__setattr__(self, "derivs", ordered)
        ranks = tuple(_coord_rank(d) for d in ordered)
        object.__setattr__(self, "_key", (self.component, len(ordered), ranks))
        object.__setattr__(self, "_reach", max(map(_coord_reach, ordered), default=0))

    @property
    def order(self) -> int:
        return len(self.derivs)

    def with_deriv(self, label: str) -> "JetIndex":
        """This index with one more derivative.  Its own labels are sorted
        and checked already, so only the new one is ranked and reached."""
        component, order, ranks = self._key
        rank = _coord_rank(label)
        pos = bisect.bisect_right(ranks, rank)
        derived = object.__new__(type(self))
        vars(derived).update(
            component=component,
            derivs=self.derivs[:pos] + (label,) + self.derivs[pos:],
            _key=(component, order + 1, ranks[:pos] + (rank,) + ranks[pos:]),
            _reach=max(self._reach, _coord_reach(label)),
        )
        return derived

    def sort_key(self):
        return self._key

    def __str__(self) -> str:
        base = f"u{self.component}"
        return base + ("_" + "".join(self.derivs) if self.derivs else "")


@dataclass(frozen=True)
class JetMonomial:
    """Coefficient times a product of jet variables, as given; ``JetExpr``
    puts it in canonical form."""

    coeff: Fraction
    factors: tuple[JetIndex, ...] = ()


_factor_key = operator.attrgetter("_key")


def _canonical(monomials) -> tuple[JetMonomial, ...]:
    """The one canonical form: Fraction coefficients, each product's
    factors sorted, equal products merged, zeros dropped, products sorted.
    A product whose factors are in order already, as in every operand of
    a sum, is not sorted again."""
    merged: dict[tuple, list] = {}
    for m in monomials:
        factors = tuple(m.factors)
        key = tuple(map(_factor_key, factors))
        if any(map(operator.gt, key, key[1:])):
            factors = tuple(sorted(factors, key=_factor_key))
            key = tuple(map(_factor_key, factors))
        coeff = m.coeff if type(m.coeff) is Fraction else Fraction(m.coeff)
        if key in merged:
            merged[key][0] += coeff
        else:
            merged[key] = [coeff, factors]
    return tuple(
        JetMonomial(coeff, factors)
        for _, (coeff, factors) in sorted(merged.items())
        if coeff != 0
    )


def _times(left, right) -> list[JetMonomial]:
    """Every product of a monomial of ``left`` with one of ``right``."""
    return [
        JetMonomial(a.coeff * b.coeff, a.factors + b.factors) for a in left for b in right
    ]


def _scaled(monomials, c) -> list[JetMonomial]:
    """Each monomial times the scalar c."""
    return [JetMonomial(c * m.coeff, m.factors) for m in monomials]


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
                    if f._reach > self.n:
                        d = next(d for d in f.derivs if not _valid_coord(d, self.n))
                        raise ValueError(
                            f"jet variable {f} uses coordinate {d} outside n={self.n}"
                        )
        object.__setattr__(self, "terms", canon)

    @classmethod
    def zero(cls, n: int, N: int, outputs: int = 1) -> "JetExpr":
        return cls(n, N, ((),) * outputs)

    @classmethod
    def variable(cls, n: int, N: int, component: int, derivs=()) -> "JetExpr":
        idx = JetIndex(component, tuple(derivs))
        return cls(n, N, ((JetMonomial(1, (idx,)),),))

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

    @property
    def max_order(self) -> int:
        orders = [
            f.order for part in self.terms for m in part for f in m.factors
        ]
        return max(orders, default=0)

    def jet_indices(self) -> set[JetIndex]:
        return {f for part in self.terms for m in part for f in m.factors}

    def _binary(self, other: "JetExpr", sign: int) -> "JetExpr":
        if (self.n, self.N) != (other.n, other.N):
            raise ValueError("expressions live in different jet spaces")
        if self.num_outputs != other.num_outputs:
            raise ValueError("expressions have different output counts")
        terms = tuple(a + tuple(_scaled(b, sign)) for a, b in zip(self.terms, other.terms))
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
            return JetExpr(self.n, self.N, (_times(self.terms[0], other.terms[0]),))
        c = Fraction(other)
        return JetExpr(self.n, self.N, tuple(_scaled(part, c) for part in self.terms))

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
    # int() refuses longer digit strings; 0 means no limit
    max_digits = sys.get_int_max_str_digits()
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
        if max_digits and len(piece) > max_digits and any(
            len(run) > max_digits for run in re.findall("[0-9]+", piece)
        ):
            raise CoreSyntaxError(
                f"line {line}, column {col}: a number in {piece[:12]!r}... has "
                f"more than {max_digits} digits"
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
                    f"suffix {_shown(suffix)} in {_shown(tok.text)}"
                )
            labels.append(m.group())
            pos += len(m.group())
        else:
            raise CoreSyntaxError(
                f"line {tok.line}, column {tok.col}: bad derivative "
                f"suffix {_shown(suffix)} in {_shown(tok.text)}"
            )
    return tuple(labels)


def _parse_jet_ident(tok: _Token) -> JetIndex:
    m = re.fullmatch(r"u([0-9]+)(?:_([A-Za-z0-9]+))?", tok.text)
    if not m:
        raise CoreSyntaxError(
            f"line {tok.line}, column {tok.col}: unknown identifier "
            f"{_shown(tok.text)} (jet variables look like u1, u2_x1t)"
        )
    component = int(m.group(1))
    if component < 1:
        raise CoreSyntaxError(
            f"line {tok.line}, column {tok.col}: components are numbered "
            f"from 1, got {_shown(tok.text)}"
        )
    derivs = _split_suffix(m.group(2), tok) if m.group(2) else ()
    if "eta" in derivs:
        raise CoreSyntaxError(
            f"line {tok.line}, column {tok.col}: eta derivatives are not "
            f"allowed in core functions ({_shown(tok.text)})"
        )
    return JetIndex(component, derivs)


# deep enough for any core, shallow enough for Python's recursion limit
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.indices: list[tuple[JetIndex, _Token]] = []
        self.depth = 0  # open parentheses; each level costs three Python frames

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: _Token, expected: str):
        got = _shown(tok.text) if tok.kind != "end" else "end of input"
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
        terms = self.parse_term()
        while self.peek().text in ("+", "-"):
            sign = 1 if self.advance().text == "+" else -1
            terms.extend(_scaled(self.parse_term(), sign))
        return terms

    def parse_term(self) -> list[JetMonomial]:
        result = self.parse_factor()
        while self.peek().text == "*":
            self.advance()
            rhs = self.parse_factor()
            result = _times(result, rhs)
        return result

    def parse_factor(self) -> list[JetMonomial]:
        # a run of signs is read in a loop, so its length costs no recursion
        sign = 1
        while self.peek().text in ("+", "-"):
            if self.advance().text == "-":
                sign = -sign
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            try:
                result = [JetMonomial(Fraction(tok.text))]
            except ZeroDivisionError:
                raise CoreSyntaxError(
                    f"line {tok.line}, column {tok.col}: division by zero in {_shown(tok.text)}"
                ) from None
        elif tok.kind == "ident":
            self.advance()
            idx = _parse_jet_ident(tok)
            self.indices.append((idx, tok))
            result = [JetMonomial(1, (idx,))]
        elif tok.text == "(":
            if self.depth == _MAX_NESTING:
                raise CoreSyntaxError(
                    f"line {tok.line}, column {tok.col}: parentheses nest deeper "
                    f"than {_MAX_NESTING} levels"
                )
            self.advance()
            self.depth += 1
            result = self.parse_expr()
            self.depth -= 1
            closing = self.peek()
            if closing.text != ")":
                self.fail(closing, "')'")
            self.advance()
        else:
            self.fail(tok, "a number, jet variable or '('")
        return result if sign == 1 else _scaled(result, -1)


def parse_core(text: str, n: int | None = None, N: int | None = None) -> JetExpr:
    """Parse core-function text into a JetExpr.

    Components are separated by ';'.  When n or N is omitted it is
    inferred from the variables that actually appear (at least 1).
    Core functions may not carry eta derivatives: one raises
    CoreSyntaxError naming the variable.
    """
    parser = _Parser(_tokenize(text))
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
                f"line {tok.line}, column {tok.col}: {_shown(tok.text)} exceeds "
                f"component count N={N}"
            )
        for d in idx.derivs:
            if d.startswith("x") and int(d[1:]) > min(n, 2):
                raise CoreSyntaxError(
                    f"line {tok.line}, column {tok.col}: {_shown(tok.text)} uses "
                    f"spatial axis beyond n={min(n, 2)}"
                )
    return JetExpr(n, N, tuple(comps))


def _product_rule(expr: JetExpr, derive) -> JetExpr:
    """Replace one factor at a time by each jet variable derive(factor) yields."""
    return JetExpr(expr.n, expr.N, tuple(
        tuple(
            JetMonomial(m.coeff, m.factors[:pos] + (new,) + m.factors[pos + 1 :])
            for m in part
            for pos, factor in enumerate(m.factors)
            for new in derive(factor)
        )
        for part in expr.terms
    ))


def jet_total_derivative(expr: JetExpr, coord: str) -> JetExpr:
    """Total derivative V_coord, acting by the product rule."""
    if not _valid_coord(coord, expr.n):
        raise ValueError(f"coordinate {coord!r} is not valid for n={expr.n}")
    return _product_rule(expr, lambda f: (f.with_deriv(coord),))


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
    labels = spatial_labels(expr.n)
    return _product_rule(expr, lambda f: [f.with_deriv(b).with_deriv(b) for b in labels])


def _check_first_order(core: JetExpr) -> None:
    """Refuse a core of order two or more, naming its first jet variable
    of the highest order."""
    if core.max_order > 1:
        top = min(
            (f for f in core.jet_indices() if f.order == core.max_order),
            key=JetIndex.sort_key,
        )
        raise ValueError(f"core must be first order, found {top} (order {top.order})")


def derive_source(core: JetExpr) -> JetExpr:
    """Filter source s = (W - L)F for a first-order core."""
    _check_first_order(core)
    return jet_W(core) - jet_L(core)


@dataclass(frozen=True)
class FrechetTable:
    """Formal partials of a core with respect to its jet variables.

    ``zero_order[(alpha, beta)]`` is dF^alpha/du^beta and
    ``first_order[(alpha, beta, coord)]`` is dF^alpha/du^beta_coord;
    only nonzero entries are stored.
    """

    zero_order: dict
    first_order: dict


def jet_linearize(core: JetExpr) -> JetExpr:
    """Frechet derivative of a core applied to a second field, as a core.

    Over 2N components, u^{N+beta} stands for the second field psi^beta:
    by the product rule each factor u^beta_I is replaced in turn by
    u^{N+beta}_I, which sums the ``jet_frechet`` table contracted with
    the jets of psi.
    """
    lifted = JetExpr(core.n, 2 * core.N, core.terms)
    return _product_rule(lifted, lambda f: (JetIndex(core.N + f.component, f.derivs),))


def jet_frechet(core: JetExpr) -> FrechetTable:
    """Tabulate the nonzero Frechet coefficients of a first-order core.

    They are read off ``jet_linearize(core)``: every monomial of it has
    one psi factor u^{N+beta}_I, and what multiplies that factor in
    output alpha is dF^alpha/du^beta_I.  Each output lists only the jet
    variables it contains, in ``JetIndex.sort_key`` order: u^beta before
    its first derivatives.
    """
    _check_first_order(core)
    n, N = core.n, core.N
    zero = {}
    first = {}
    for alpha, part in enumerate(jet_linearize(core).terms, start=1):
        rest: dict[JetIndex, list[JetMonomial]] = {}
        for m in part:
            (pos,) = [i for i, f in enumerate(m.factors) if f.component > N]
            others = m.factors[:pos] + m.factors[pos + 1 :]
            rest.setdefault(m.factors[pos], []).append(JetMonomial(m.coeff, others))
        for psi in sorted(rest, key=JetIndex.sort_key):
            key = (alpha, psi.component - N) + psi.derivs
            (first if psi.derivs else zero)[key] = JetExpr(n, N, (rest[psi],))
    return FrechetTable(zero_order=zero, first_order=first)


class _JetTable(dict):
    """``jet_values``' table; ``nodes``, its rows' node axes, serves a constant: it reads no jet."""


def jet_values(
    expr: JetExpr, grid: Grid, u: np.ndarray, u_t: np.ndarray | None = None
) -> dict[JetIndex, np.ndarray]:
    """Each jet variable the expression needs, as values on the grid, read off
    the slice's rows u and u_t (ncomp, *grid.shape), or off K nodes' stacks
    (K, ncomp, *grid.shape) as (K, *grid.shape), each node's as alone.

    Component alpha is a view, at alpha - 1 on u's component axis; spatial
    derivatives are spectral on the half spectrum, one real inverse per jet
    of one real forward transform per differentiated component, times
    ``grid.rderivatives``.  A single t-derivative reads from u_t; higher
    time or any eta derivatives cannot be formed.
    """
    for name, row in (("u", u), ("u_t", u_t)):
        if row is not None and np.shape(row)[-grid.n - 1 :][1:] != grid.shape:
            raise ValueError(f"{name} of shape {np.shape(row)} does not fit grid shape {grid.shape}")
    if u_t is not None and np.shape(u_t)[: -grid.n - 1] != np.shape(u)[: -grid.n - 1]:
        raise ValueError(f"u_t of shape {np.shape(u_t)} has other nodes than u, {np.shape(u)}")
    values = _JetTable()
    values.nodes = np.shape(u)[: -grid.n - 1]
    u, u_t = (row if row is None else np.moveaxis(row, -grid.n - 1, 0) for row in (u, u_t))
    # jets of one field and component in a row, so one spectrum is live
    order = sorted(expr.jet_indices(), key=lambda i: (i.derivs.count("t"), i.sort_key()))
    spectrum_of, spectrum = None, None
    for idx in order:
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
        if idx.component > len(base):
            raise ValueError(f"jet variable {idx} exceeds field component count {len(base)}")
        vals = base[idx.component - 1]
        spatial = [int(d[1:]) - 1 for d in idx.derivs if d.startswith("x")]
        if spatial:
            if max(spatial) >= grid.n:
                raise ValueError(
                    f"jet variable {idx} differentiates along x{max(spatial) + 1}, "
                    f"but the grid is {grid.n}-dimensional"
                )
            if spectrum_of != (t_count, idx.component):
                spectrum_of = (t_count, idx.component)
                spectrum = _rfft(grid, vals)
            coeffs = spectrum * grid.rderivatives[spatial[0]]
            for axis in spatial[1:]:
                coeffs *= grid.rderivatives[axis]
            vals = _irfft(grid, coeffs)
        values[idx] = vals
    return values


def jet_evaluate(expr: JetExpr, jets: dict[JetIndex, np.ndarray], grid: Grid) -> np.ndarray:
    """Evaluate a jet polynomial on the jet values read off a slice on grid
    to the checked row (outputs, *grid.shape); values (K, *grid.shape) of K
    nodes give (K, outputs, *grid.shape), each node's row as alone.

    Nonlinear terms are dealiased pseudo-spectrally: the quadratic
    monomials of each output are summed and the sum dealiased once, and
    a monomial of three or more factors is dealiased after each product
    of two.  A constant expression evaluates to its constant on the grid,
    on the node axes of the rows its table was read off.
    """
    nodes = next(iter(jets.values())).shape[: -grid.n] if jets else getattr(jets, "nodes", ())
    out = np.zeros(nodes + (expr.num_outputs,) + grid.shape)
    outputs = np.moveaxis(out, -grid.n - 1, 0)  # a view: outputs[a] is output a
    # the quadratic sum of one output and a scaled monomial, reused
    quadratic, term = np.empty((2,) + nodes + grid.shape)
    for a, part in enumerate(expr.terms):
        has_quadratic = False
        for m in part:
            for f in m.factors:
                if f not in jets:
                    raise ValueError(f"missing jet value for {f}")
            vals = [jets[f] for f in m.factors]
            if len(vals) == 2:
                row = term if has_quadratic else quadratic
                np.multiply(vals[0], vals[1], out=row)
                row *= float(m.coeff)
                if has_quadratic:
                    quadratic += row
                has_quadratic = True
                continue
            prod = vals[0] if vals else 1.0
            for v in vals[1:]:
                prod = _dealias_values(grid, prod * v)
            outputs[a] += np.multiply(float(m.coeff), prod, out=term)
        if has_quadratic:
            outputs[a] += _dealias_values(grid, quadratic)
    return _finite(out)
