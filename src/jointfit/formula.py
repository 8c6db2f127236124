"""Parser for the component-based model language.

A model formula is `response ~ component + component + ...` where each
component is a `:`-separated product of elements, optionally constrained to
a unit coefficient with a trailing `*1`.  Elements are variables, rcs/fp
bases, random effects `M#[level]`, cross-submodel links (EV/XB and their
derivative/integral forms), and the bhazard/exposure/ap specials.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from . import families


class ParseError(ValueError):
    pass


class SpecError(ValueError):
    pass


_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_RE_VARNAME = re.compile(rf"^{_NAME}$")
_RE_RANDEFF = re.compile(rf"^(M\d+)\[({_NAME})\]$")
_RE_LINK = re.compile(rf"^(d2|d|i)?(EV|XB)\[({_NAME}|\d+)\]$")


@dataclass
class Element:
    kind: str                       # variable | rcs | fp | re | link | bhazard | exposure | ap | cons
    var: str = ""                   # variable / column name, or M# name for re
    level: str = ""                 # re only
    link_kind: str = ""             # link only: EV/XB, dEV/dXB, d2EV/d2XB or iEV/iXB
    target: str = ""                # link only: response name or submodel index string
    target_index: int = -1          # resolved during validation (0-based)
    df: int | None = None           # rcs
    knots: tuple[float, ...] | None = None
    orthog: bool = False
    log: bool = False
    event: bool = False
    powers: tuple[float, ...] = ()  # fp
    ap_count: int = 0               # ap

    def is_time_function(self, timevar: str) -> bool:
        """Whether this element varies with evaluation time."""
        if self.kind == "link":
            return True
        if self.kind in ("variable", "rcs", "fp"):
            return bool(timevar) and self.var == timevar
        return False

    def __str__(self) -> str:
        if self.kind == "variable":
            return self.var
        if self.kind == "re":
            return f"{self.var}[{self.level}]"
        if self.kind == "link":
            return f"{self.link_kind}[{self.target}]"
        if self.kind == "rcs":
            opts = []
            if self.knots is not None:
                opts.append("knots = c(" + ", ".join(repr(k) for k in self.knots) + ")")
            else:
                opts.append(f"df = {self.df}")
            if self.orthog:
                opts.append("orthog = TRUE")
            if self.log:
                opts.append("log = TRUE")
            if self.event:
                opts.append("event = TRUE")
            return f"rcs({self.var}, " + ", ".join(opts) + ")"
        if self.kind == "fp":
            pw = ", ".join(repr(p) for p in self.powers)
            return f"fp({self.var}, powers = c({pw}))"
        if self.kind == "bhazard":
            return f"bhazard({self.var})"
        if self.kind in ("exposure", "exposure_log"):
            return f"exposure({self.var})"
        if self.kind == "ap":
            return f"ap({self.ap_count})"
        return "_cons"


@dataclass
class Component:
    elements: list[Element]
    constrained: bool = False

    def __str__(self) -> str:
        s = ":".join(str(e) for e in self.elements)
        return s + " * 1" if self.constrained else s


@dataclass
class Submodel:
    response: str | tuple[str, str]     # scalar column or (time, status)
    family: str
    components: list[Component]
    timevar: str | None = None
    userf: str | None = None
    intercept: bool = True
    bhazard_var: str | None = None
    user_ap: int = 0

    @property
    def is_survival(self) -> bool:
        return families.FAMILIES[self.family].survival

    @property
    def response_name(self) -> str:
        return self.response if isinstance(self.response, str) else self.response[0]

    def formula(self) -> str:
        if isinstance(self.response, tuple):
            lhs = f"Surv({self.response[0]}, {self.response[1]})"
        else:
            lhs = self.response
        parts = [str(c) for c in self.components]
        if self.bhazard_var:
            parts.append(f"bhazard({self.bhazard_var})")
        if self.user_ap:
            parts.append(f"ap({self.user_ap})")
        return lhs + " ~ " + " + ".join(parts)


@dataclass
class ModelSpec:
    submodels: list[Submodel]
    levels: tuple[str, ...] = ()
    covariance: str = "identity"
    intmethod: tuple[str, ...] = ()
    ip: tuple[int, ...] = ()
    re_layout: dict[str, list[str]] = field(default_factory=dict)  # level -> M# names
    validated: bool = False


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep outside any (), [] nesting."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_value(text: str):
    text = text.strip()
    if text in ("TRUE", "T", "true"):
        return True
    if text in ("FALSE", "F", "false"):
        return False
    m = re.match(r"^c\((.*)\)$", text)
    if m:
        inner = m.group(1).strip()
        if not inner:
            return ()
        return tuple(float(v) for v in _split_top(inner, ","))
    try:
        return float(text)
    except ValueError:
        return text


def _parse_call_args(inner: str) -> tuple[list, dict]:
    pos, kw = [], {}
    for part in _split_top(inner, ","):
        part = part.strip()
        if not part:
            raise ParseError(f"empty argument in {inner!r}")
        eq = _split_top(part, "=")
        if len(eq) == 2:
            kw[eq[0].strip()] = _parse_value(eq[1])
        else:
            pos.append(part)
    return pos, kw


def parse_element(text: str) -> Element:
    text = text.strip()
    if not text:
        raise ParseError("empty element")
    compact = re.sub(r"\s+", "", text)

    m = _RE_RANDEFF.match(compact)
    if m:
        return Element("re", var=m.group(1), level=m.group(2))
    m = _RE_LINK.match(compact)
    if m:
        prefix = m.group(1) or ""
        kind = prefix + m.group(2)
        return Element("link", link_kind=kind, target=m.group(3))

    m = re.match(rf"^({_NAME})\((.*)\)$", text.strip(), flags=re.S)
    if m:
        fn, inner = m.group(1), m.group(2)
        pos, kw = _parse_call_args(inner)
        if fn == "rcs":
            if len(pos) != 1:
                raise ParseError(f"rcs needs a variable: {text!r}")
            el = Element("rcs", var=pos[0])
            if "df" in kw:
                el.df = int(kw["df"])
            if "knots" in kw:
                k = kw["knots"]
                el.knots = k if isinstance(k, tuple) else (float(k),)
            if (el.df is None) == (el.knots is None):
                raise ParseError("rcs needs exactly one of df/knots")
            el.orthog = bool(kw.get("orthog", False))
            el.log = bool(kw.get("log", False))
            el.event = bool(kw.get("event", False))
            return el
        if fn == "fp":
            if len(pos) != 1 or "powers" not in kw:
                raise ParseError(f"fp needs a variable and powers: {text!r}")
            pw = kw["powers"]
            pw = pw if isinstance(pw, tuple) else (float(pw),)
            if not 1 <= len(pw) <= 2:
                raise ParseError("fp supports powers of length 1 or 2")
            return Element("fp", var=pos[0], powers=pw)
        if fn == "bhazard":
            if len(pos) != 1:
                raise ParseError("bhazard needs a variable")
            return Element("bhazard", var=pos[0])
        if fn == "exposure":
            if len(pos) != 1:
                raise ParseError("exposure needs a variable")
            return Element("exposure", var=pos[0])
        if fn == "ap":
            if len(pos) != 1:
                raise ParseError("ap needs a count")
            return Element("ap", ap_count=int(float(pos[0])))
        raise ParseError(f"unknown function {fn!r} in element {text!r}")

    if _RE_VARNAME.match(compact):
        return Element("variable", var=compact)
    raise ParseError(f"cannot parse element {text!r}")


def parse_component(text: str) -> Component:
    text = text.strip()
    if not text:
        raise ParseError("empty component")
    constrained = False
    m = re.search(r"\*\s*1\s*$", text)
    if m:
        constrained = True
        text = text[: m.start()].strip()
    elements = [parse_element(p) for p in _split_top(text, ":")]
    re_levels = [e.level for e in elements if e.kind == "re"]
    if len(re_levels) != len(set(re_levels)):
        raise ParseError(f"component {text!r} has two random effects at the same level")
    return Component(elements, constrained)


def _parse_response(text: str):
    text = text.strip()
    m = re.match(rf"^Surv\(\s*({_NAME})\s*,\s*({_NAME})\s*\)$", text)
    if m:
        return (m.group(1), m.group(2))
    if _RE_VARNAME.match(text):
        return text
    raise ParseError(f"cannot parse response {text!r} (expected varname or Surv(time, status))")


def parse_model(
    text: str,
    family: str,
    timevar: str | None = None,
    userf: str | None = None,
    noconstant: bool = False,
) -> Submodel:
    """Parse one submodel formula `response ~ component + component + ...`."""
    if family not in families.FAMILIES:
        raise ParseError(f"unknown family {family!r}")
    fam = families.FAMILIES[family]
    sides = _split_top(text, "~")
    if len(sides) != 2:
        raise ParseError(f"formula must contain exactly one '~': {text!r}")
    response = _parse_response(sides[0])
    sub = Submodel(
        response=response,
        family=family,
        components=[],
        timevar=timevar,
        userf=userf,
        intercept=not noconstant,
    )
    for part in _split_top(sides[1], "+"):
        comp = parse_component(part)
        # bhazard/exposure/ap are submodel-level specials, not coefficients
        el = comp.elements[0]
        special = el.kind if len(comp.elements) == 1 else None
        if special == "bhazard":
            sub.bhazard_var = el.var
        elif special == "ap":
            if not fam.user:
                raise ParseError(f"ap() is for user families only, not {family!r}")
            sub.user_ap += el.ap_count
        elif special == "exposure":
            sub.components.append(
                Component([Element("exposure_log", var=el.var)], constrained=True))
        else:
            sub.components.append(comp)
    if sub.is_survival and not isinstance(sub.response, tuple):
        raise ParseError(f"family {family!r} requires a Surv(time, status) response")
    if fam.user and not userf:
        raise ParseError("family 'user' requires a userf name")
    if userf and not fam.user:
        raise ParseError(f"userf= is for user families only, not {family!r}")
    return sub


def validate_spec(spec, dataset) -> ModelSpec:
    """Resolve names against the dataset, apply integration defaults, and
    check random-effect and link consistency."""
    from .data import DataError

    if dataset.n_rows == 0:
        raise DataError("dataset has no rows")
    re_first_seen: list[str] = []
    re_level_of: dict[str, str] = {}
    for sub in spec.submodels:
        resp = sub.response if isinstance(sub.response, tuple) else (sub.response,)
        for name in resp:
            dataset.column(name)
        if sub.timevar is not None:
            dataset.column(sub.timevar)
        if sub.bhazard_var is not None:
            dataset.column(sub.bhazard_var)
        needs_timevar = False
        for comp in sub.components:
            for el in comp.elements:
                if el.kind in ("variable", "exposure_log", "rcs", "fp"):
                    dataset.column(el.var)
                if el.kind == "re":
                    if not spec.levels:
                        raise SpecError("random effects present but no levels declared")
                    if el.level not in spec.levels:
                        raise SpecError(f"random-effect level {el.level!r} not declared")
                    prev = re_level_of.setdefault(el.var, el.level)
                    if prev != el.level:
                        raise SpecError(
                            f"{el.var} used at two levels: {prev!r} and {el.level!r}"
                        )
                    if el.var not in re_first_seen:
                        re_first_seen.append(el.var)
                if el.kind == "link" or el.is_time_function(sub.timevar or ""):
                    needs_timevar = True
        # rp/loghazard carry their baseline in eta; a scalar kernel reads eta at timevar
        fam = families.FAMILIES[sub.family]
        if (needs_timevar and sub.timevar is None
                and (fam.baseline_in_eta or fam.loglik is not None)):
            raise SpecError(f"family {sub.family!r} with time-dependent components needs timevar")

    # resolve link targets and reject reference cycles
    edges: dict[int, set[int]] = {i: set() for i in range(len(spec.submodels))}
    for i, sub in enumerate(spec.submodels):
        for comp in sub.components:
            for el in comp.elements:
                if el.kind != "link":
                    continue
                if el.target.isdigit():
                    idx = int(el.target) - 1
                    if not 0 <= idx < len(spec.submodels):
                        raise SpecError(f"link target index {el.target} out of range")
                else:
                    matches = [
                        j for j, s in enumerate(spec.submodels)
                        if s.response_name == el.target
                    ]
                    if not matches:
                        raise SpecError(f"no submodel has response {el.target!r}")
                    if len(matches) > 1:
                        raise SpecError(f"link target {el.target!r} is ambiguous")
                    idx = matches[0]
                target = spec.submodels[idx].family
                if el.link_kind.endswith("EV") and families.FAMILIES[target].link is None:
                    raise SpecError(f"{el.link_kind}[{el.target}] needs a family "
                                    f"with a mean, not {target!r}")
                el.target_index = idx
                edges[i].add(idx)
    state = {}

    def visit(i):
        if state.get(i) == 1:
            raise SpecError("cyclic link chain between submodels")
        if state.get(i) == 2:
            return
        state[i] = 1
        for j in edges[i]:
            visit(j)
        state[i] = 2

    for i in edges:
        visit(i)

    # level layout and integration defaults
    layout = {lv: [nm for nm in re_first_seen if re_level_of[nm] == lv] for lv in spec.levels}
    for lv in spec.levels:
        if lv not in dataset.level_index:
            raise DataError(f"level {lv!r} has no cluster index; call build_levels first")
    n_lev = len(spec.levels)
    intmethod = tuple(spec.intmethod) if spec.intmethod else ()
    if len(intmethod) == 0:
        intmethod = ("ghermite",) * n_lev
    elif len(intmethod) == 1 and n_lev > 1:
        intmethod = intmethod * n_lev
    elif len(intmethod) != n_lev:
        raise SpecError("intmethod must have one entry per level")
    ip = tuple(spec.ip) if spec.ip else ()
    if len(ip) == 0:
        ip = tuple(7 if m == "ghermite" else 100 for m in intmethod)
    elif len(ip) == 1 and n_lev > 1:
        ip = ip * n_lev
    elif len(ip) != n_lev:
        raise SpecError("ip must have one entry per level")
    if spec.covariance not in ("identity", "diagonal", "unstructured"):
        raise SpecError(f"unknown covariance structure {spec.covariance!r}")

    spec.intmethod = intmethod
    spec.ip = ip
    spec.re_layout = layout
    spec.validated = True
    return spec


def format_spec(spec: ModelSpec) -> str:
    """Model-spec file text: global key lines, then one submodel per line."""
    lines = []
    if spec.levels:
        lines.append("levels = " + ",".join(spec.levels))
    lines.append(f"covariance = {spec.covariance}")
    if spec.intmethod:
        lines.append("intmethod = " + ",".join(spec.intmethod))
    if spec.ip:
        lines.append("ip = " + ",".join(str(i) for i in spec.ip))
    for sub in spec.submodels:
        opts = []
        if sub.timevar:
            opts.append(f"timevar={sub.timevar}")
        if sub.userf:
            opts.append(f"userf={sub.userf}")
        if not sub.intercept:
            opts.append("noconstant=1")
        line = f"{sub.family} : {sub.formula()}"
        if opts:
            line += " | " + " ".join(opts)
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_spec_text(text: str) -> ModelSpec:
    """Parse a model-spec file: `key = value` globals plus submodel lines
    of the form `family : formula [| key=value ...]`."""
    submodels = []
    levels: tuple[str, ...] = ()
    covariance = "identity"
    intmethod: tuple[str, ...] = ()
    ip: tuple[int, ...] = ()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "~" not in line:
            eq = _split_top(line, "=")
            if len(eq) != 2:
                raise ParseError(f"line {lineno}: expected `key = value`")
            key, value = eq[0].strip(), eq[1].strip()
            if key == "levels":
                levels = tuple(v.strip() for v in value.split(",") if v.strip())
            elif key == "covariance":
                covariance = value
            elif key == "intmethod":
                intmethod = tuple(v.strip() for v in value.split(","))
            elif key == "ip":
                ip = tuple(int(v) for v in value.split(","))
            else:
                raise ParseError(f"line {lineno}: unknown key {key!r}")
            continue
        head, _, rest = line.partition(":")
        family = head.strip()
        opts_text = ""
        if "|" in rest:
            rest, _, opts_text = rest.partition("|")
        kw: dict[str, str] = {}
        for tok in opts_text.split():
            k, _, v = tok.partition("=")
            kw[k.strip()] = v.strip()
        sub = parse_model(
            rest.strip(),
            family,
            timevar=kw.get("timevar"),
            userf=kw.get("userf"),
            noconstant=bool(int(kw.get("noconstant", "0"))),
        )
        submodels.append(sub)
    if not submodels:
        raise ParseError("spec contains no submodels")
    return ModelSpec(submodels, levels, covariance, intmethod, ip)
