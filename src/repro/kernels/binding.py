"""How arrays cross into the compiled kernels: as raw addresses.

Every ``cext`` entry point declares its array arguments
``ctypes.c_void_p``.  An array made per call (queries, windows,
outputs) costs one :func:`address`.  An index's own arrays never change
between calls, so each packed form binds them once: :class:`Bindable`
checks their dtype, C order and lengths, writes their addresses and
its scalars into one C structure (its argument run, passed by one
address, so a call converts one argument for the whole form), and
caches that together with its keys' address and length.  A call then
converts only its queries and outputs.

A binding is process-local.  Its addresses are valid only while this
process holds the arrays they point into, so it holds a reference to
each and never travels with a pickle or a copy (``__getstate__`` drops
it): a round trip keeps the index's keys and the binding's keys as one
object, so the identity check would pass on the addresses of arrays
the original process has freed.
"""

from __future__ import annotations

import ctypes

import numpy as np

__all__ = ["Bindable", "address", "run_struct"]


def address(a: np.ndarray) -> "int | None":
    """The data address of C-contiguous array ``a``; ``None`` (NULL)
    when it is empty.

    ``c_char.from_buffer`` is the cheap path (about 0.5 µs against
    about 1.5 µs for ``a.ctypes.data``), but it needs a writable
    buffer and raises ``TypeError`` on a read-only array.
    """
    if not len(a):
        return None
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except TypeError:
        return a.ctypes.data


def _is_array(kind: type) -> bool:
    return issubclass(kind, np.generic)


def run_struct(run) -> type:
    """The ctypes structure of a ``KERNEL_RUN``: one field per entry,
    ``c_void_p`` for each array and the declared ctypes type for each
    scalar, laid out like the C ``*_run`` struct it mirrors."""
    fields = [(field, ctypes.c_void_p if _is_array(kind) else kind)
              for field, kind in run]
    return type("KernelRun", (ctypes.Structure,), {"_fields_": fields})


class _Binding:
    """Kernel arguments bound in this process, with a reference to
    every array they point into."""

    __slots__ = ("keys", "args", "arrays")

    def __init__(self, keys, args: tuple, arrays: tuple) -> None:
        self.keys = keys
        self.args = args
        self.arrays = arrays


class Bindable:
    """Mixin of the packed forms: their kernel arguments, bound once.

    A subclass lists in ``KERNEL_RUN`` the fields of the C structure
    the kernels take after ``(keys, n)``, in C field order, each with
    its type: a NumPy scalar type for an array passed by address, a
    ctypes type for a scalar.  Its :meth:`check_lengths` raises
    ``ValueError`` when an array is shorter than the kernels index it.
    The binding runs it once, with the dtype and C-order checks.
    """

    KERNEL_RUN: "tuple[tuple[str, type], ...]" = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._run_struct = run_struct(cls.KERNEL_RUN)

    #: Number of indexed keys (a field of every packed form).
    n: int

    def check_lengths(self) -> None:
        """Raise ``ValueError`` unless the arrays' lengths agree with
        the sizes the kernels read them by."""

    def _run(self) -> _Binding:
        run = self.__dict__.get("_kernel_run")
        if run is not None:
            return run
        values, arrays = [], []
        for field, kind in self.KERNEL_RUN:
            value = getattr(self, field)
            if not _is_array(kind):
                values.append(int(value))
                continue
            if not (isinstance(value, np.ndarray) and value.dtype == kind
                    and value.flags.c_contiguous):
                raise TypeError(
                    f"{type(self).__name__}.{field} must be a C-contiguous "
                    f"{np.dtype(kind).name} array"
                )
            values.append(address(value))
            arrays.append(value)
        if self.n < 1:
            raise ValueError(f"{type(self).__name__} indexes no keys")
        self.check_lengths()
        struct = self._run_struct(*values)
        run = _Binding(None, (ctypes.c_void_p(ctypes.addressof(struct)),),
                       (*arrays, struct))
        self.__dict__["_kernel_run"] = run
        return run

    def kernel_run(self) -> tuple:
        """This form's argument run as kernel arguments: the address of
        its C structure; checked and bound on first use."""
        return self._run().args

    def bind(self, keys: np.ndarray) -> tuple:
        """``(keys, n, *kernel_run())`` as kernel arguments.

        Bound on first use and again whenever a different ``keys``
        object arrives; ``keys`` must be a C-contiguous ``uint64`` array
        of ``n`` keys.
        """
        binding = self.__dict__.get("_binding")
        if binding is not None and binding.keys is keys:
            return binding.args
        run = self._run()
        if not (isinstance(keys, np.ndarray) and keys.dtype == np.uint64
                and keys.flags.c_contiguous):
            raise TypeError("keys must be a C-contiguous uint64 array")
        if len(keys) != self.n:
            raise ValueError(f"{type(self).__name__} indexes {self.n} keys, "
                             f"got {len(keys)}")
        binding = _Binding(
            keys,
            (ctypes.c_void_p(address(keys)), ctypes.c_int64(len(keys)),
             *run.args),
            (keys, *run.arrays),
        )
        self.__dict__["_binding"] = binding
        return binding.args

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_kernel_run", None)
        state.pop("_binding", None)
        return state
