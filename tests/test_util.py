import json
import math
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from iqhall.cli import main
from iqhall.errors import InputError
from iqhall.util import PRIMALITY_BOUND, is_prime

A1 = str(Path(__file__).resolve().parent.parent / "scripts" / "quivers" / "a1.json")


@contextmanager
def _deadline(seconds):
    """Interrupt the block with TimeoutError after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"took over {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_is_prime_agrees_with_trial_division():
    for n in range(20000):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))), n


@pytest.mark.parametrize("n", [561, 41041, 3215031751])
def test_carmichael_numbers_are_composite(n):
    with _deadline(1.0):
        assert not is_prime(n)


def test_a_strong_pseudoprime_to_the_primes_up_to_37_is_composite():
    # it passes Miller-Rabin to every prime base up to 37; base 41 exposes it
    with _deadline(1.0):
        assert not is_prime(399165290221 * 798330580441)


def test_a_mersenne_prime_is_recognized_at_once():
    start = time.perf_counter()
    with _deadline(1.0):
        assert is_prime(2 ** 61 - 1)
        assert not is_prime((2 ** 61 - 1) * (2 ** 19 - 1))
    assert time.perf_counter() - start < 1.0


def test_no_answer_at_or_above_the_bound():
    with _deadline(1.0):
        assert is_prime(PRIMALITY_BOUND - 2) in (True, False)
        with pytest.raises(InputError, match=str(PRIMALITY_BOUND)):
            is_prime(PRIMALITY_BOUND)


def test_a_modulus_above_the_bound_is_an_input_error(capsys):
    with _deadline(5.0):
        code = main(["--no-cache", "hall", "mul", "--quiver", A1,
                     "--q", str(PRIMALITY_BOUND + 2), "--word", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    [line] = err.splitlines()
    error = json.loads(line)
    assert error["kind"] == "input"
    assert error["error"].startswith("argument --q: ") and str(PRIMALITY_BOUND) in error["error"]
