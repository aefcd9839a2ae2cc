import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_traced_name_exists(monkeypatch):
    # the benchmark's tracer wraps package functions by name from outside;
    # a renamed or deleted target must fail the suite, not just the benchmark
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.restore()
