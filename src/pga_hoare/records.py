"""Value classes: the small records every layer builds, without dataclasses.

`record` makes a class whose body annotates its fields into a value class,
as a frozen dataclass would: __init__ takes the fields in order (a class
attribute of a field's name is its default) and then calls the class's
__post_init__, if it has one; equality is class-exact and field by field;
the hash is that of the field tuple; the repr reads Name(field=value, ...);
and assigning or deleting any attribute raises AttributeError.

__init__, __eq__ and __hash__ are compiled from one generated source,
shared by the classes whose fields and defaults read alike.  That costs a
small part of what `dataclasses`, and the modules it imports, cost at
every start-up of the command line.
"""

from __future__ import annotations

_MISSING = object()
_CODE = {}  # generated source -> its code: classes of one shape share it


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(self):
    shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
    return f"{self.__class__.__qualname__}({shown})"


def record(cls):
    """Class decorator: the class as a frozen value class of its annotated
    fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    env = {"_setattr": object.__setattr__}
    params, body = ["self"], []
    for n in names:
        default = cls.__dict__.get(n, _MISSING)
        if default is not _MISSING:
            env[f"_d_{n}"] = default
            params.append(f"{n}=_d_{n}")
        else:
            params.append(n)
        # __init__ sidesteps a frozen __setattr__; self.__dict__ writes run
        # fewer bytecodes but are slower: on CPython 3.11 they build a dict
        body.append(f"_setattr(self, {n!r}, {n})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    src = (f"def __init__({', '.join(params)}):\n"
           + "".join(f"    {line}\n" for line in body or ["pass"])
           + "def __eq__(self, other):\n"
           "    if other.__class__ is self.__class__:\n"
           f"        return ({mine}) == ({theirs})\n"
           "    return NotImplemented\n"
           "def __hash__(self):\n"
           f"    return hash(({mine}))\n")
    if src not in _CODE:
        _CODE[src] = compile(src, "<record>", "exec")
    exec(_CODE[src], env)
    for method in ("__init__", "__eq__", "__hash__"):
        env[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, env[method])
    cls.__repr__ = _repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls._fields = names
    return cls


def replace(obj, **changes):
    """A copy of the record obj with the named fields changed."""
    fields = {n: getattr(obj, n) for n in obj._fields}
    fields.update(changes)
    return obj.__class__(**fields)
