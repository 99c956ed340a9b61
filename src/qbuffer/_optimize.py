"""scipy.optimize entry points, imported on first call.

Importing scipy.optimize is most of a cold command's start-up, and
``classify`` and ``sweep`` never solve anything.  Callers keep these names as
module globals, so tests and the benchmark's tracer can swap them; they are
objects rather than functions, so that tracer, which wraps every qbuffer
function, wraps each one once, as the scipy entry point it stands for.
"""


class _OnFirstCall:
    def __init__(self, name: str) -> None:
        self.__name__ = name

    def __call__(self, *args, **kwargs):
        import scipy.optimize
        return getattr(scipy.optimize, self.__name__)(*args, **kwargs)


brentq = _OnFirstCall("brentq")
least_squares = _OnFirstCall("least_squares")
minimize = _OnFirstCall("minimize")
nnls = _OnFirstCall("nnls")
