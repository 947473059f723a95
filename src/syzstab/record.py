"""Frozen records: the one base of the package's result types.

A subclass of Record lists its fields as class annotations, in order,
each with an optional default, as a dataclass would.  When the subclass
is defined, Record keeps the field names in the tuple `_fields` and
compiles an __init__, __eq__ and __hash__ for exactly those fields, with
exec, once per class, the way dataclasses and namedtuple build theirs.
A compiled __init__ sets each field by object.__setattr__, so instances
keep the interpreter's fast attribute layout; it ends by calling
__post_init__ when the class defines one.  repr has the dataclass
format, and assigning or deleting an attribute raises AttributeError.
copy, deepcopy and pickle restore the attribute dict directly, so they
need nothing more.

It exists so that importing the package needs neither dataclasses nor
the modules dataclasses loads (inspect, ast, dis and more).
"""


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)  # the class's own, in order
        defaults = [cls.__dict__[name] for name in names if name in cls.__dict__]
        required = len(names) - len(defaults)
        if any(name in cls.__dict__ for name in names[:required]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        body = [f"_setattr(self, {name!r}, {name})" for name in names]
        if "__post_init__" in cls.__dict__:
            body.append("self.__post_init__()")
        mine = "".join(f"self.{name}," for name in names)
        theirs = "".join(f"other.{name}," for name in names)
        namespace = {}
        exec(f"def __init__(self, {', '.join(names)}):\n {'; '.join(body)}\n"
             f"def __eq__(self, other):\n"
             f" if other.__class__ is self.__class__: return ({mine}) == ({theirs})\n"
             f" return NotImplemented\n"
             f"def __hash__(self):\n return hash(({mine}))\n",
             {"_setattr": object.__setattr__, "__name__": cls.__module__}, namespace)
        namespace["__init__"].__defaults__ = tuple(defaults)
        for name, fn in namespace.items():
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
        cls._fields = names

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
