"""Golden `--json` output of the element- and series-producing CLI commands.

Each case is a command line and the exact line it printed when recorded;
the element fields (valuation, digits, abs_precision and text) must stay
byte-identical whatever representation the elements use inside.
"""

import contextlib
import io

import pytest

from dvfield.cli import run

CASES = [
    (['elem', '-p', '5', '--json', '-N', '12', '1/3'],
     '{"abs_precision": 12, "digits": [2, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3], "text": "2 + 3*5 + 1*5^2 + 3*5^3 + 1*5^4 + 3*5^5 + 1*5^6 + 3*5^7 + 1*5^8 + 3*5^9 + 1*5^10 + 3*5^11 + O(5^12)", "valuation": 0}'),
    (['elem', '-p', '7', '--json', '-N', '10', '2/49', 'mul', '3/7'],
     '{"abs_precision": 8, "digits": [6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "text": "7^-3 * 6 + O(7^11)", "valuation": -3}'),
    (['elem', '-p', '3', '--json', '-N', '10', '1/2', 'sub', '1/2'],
     '{"abs_precision": 10, "digits": [], "text": "O(3^10)", "valuation": null}'),
    (['elem', '-p', '3', '--json', '-N', '10', '1/2', 'sub', '7/2'],
     '{"abs_precision": 10, "digits": [2, 2, 2, 2, 2, 2, 2, 2, 2], "text": "3^1 * 2 + 2*3 + 2*3^2 + 2*3^3 + 2*3^4 + 2*3^5 + 2*3^6 + 2*3^7 + 2*3^8 + O(3^9)", "valuation": 1}'),
    (['elem', '-p', '5', '--json', '-N', '10', '3/25', 'div', '7/5'],
     '{"abs_precision": 10, "digits": [4, 0, 2, 1, 4, 2, 3, 0, 2, 1, 4], "text": "5^-1 * 4 + 2*5^2 + 1*5^3 + 4*5^4 + 2*5^5 + 3*5^6 + 2*5^8 + 1*5^9 + 4*5^10 + O(5^11)", "valuation": -1}'),
    (['elem', '-p', '2', '--json', '-N', '20', '5', 'add', '1/3'],
     '{"abs_precision": 20, "digits": [1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], "text": "2^4 * 1 + 1*2 + 1*2^3 + 1*2^5 + 1*2^7 + 1*2^9 + 1*2^11 + 1*2^13 + 1*2^15 + O(2^16)", "valuation": 4}'),
    (['elem', '-p', '3', '--json', '-N', '8', '3^-2 * 1 + 2*3 + O(3^6)', 'add', '3^-1 * 2 + O(3^9)'],
     '{"abs_precision": 4, "digits": [1, 1, 1, 0, 0, 0], "text": "3^-2 * 1 + 1*3 + 1*3^2 + O(3^6)", "valuation": -2}'),
    (['inv1m', '-p', '7', '--json', '-N', '12', '21'],
     '{"abs_precision": 12, "digits": [1, 3, 2, 0, 1, 3, 2, 0, 1, 3, 2, 0], "text": "1 + 3*7 + 2*7^2 + 1*7^4 + 3*7^5 + 2*7^6 + 1*7^8 + 3*7^9 + 2*7^10 + O(7^12)", "valuation": 0}'),
    (['inv1m', '-p', '2', '--json', '-N', '9', '2^1 * 1 + 1*2 + O(2^8)'],
     '{"abs_precision": 9, "digits": [1, 1, 0, 0, 1, 1, 0, 0, 1], "text": "1 + 1*2 + 1*2^4 + 1*2^5 + 1*2^8 + O(2^9)", "valuation": 0}'),
    (['exp', '-p', '3', '--json', '-N', '20', '3/2'],
     '{"abs_precision": 20, "digits": [1, 2, 1, 1, 2, 1, 1, 0, 0, 0, 2, 1, 0, 1, 1, 0, 2, 1, 1, 0], "text": "1 + 2*3 + 1*3^2 + 1*3^3 + 2*3^4 + 1*3^5 + 1*3^6 + 2*3^10 + 1*3^11 + 1*3^13 + 1*3^14 + 2*3^16 + 1*3^17 + 1*3^18 + O(3^20)", "valuation": 0}'),
    (['exp', '-p', '2', '--json', '-N', '16', '4'],
     '{"abs_precision": 16, "digits": [1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0], "text": "1 + 1*2^2 + 1*2^3 + 1*2^6 + 1*2^8 + 1*2^14 + O(2^16)", "valuation": 0}'),
    (['exp', '-p', '7', '--json', '-N', '12', '7/4'],
     '{"abs_precision": 12, "digits": [1, 2, 0, 4, 0, 1, 1, 3, 3, 3, 0, 4], "text": "1 + 2*7 + 4*7^3 + 1*7^5 + 1*7^6 + 3*7^7 + 3*7^8 + 3*7^9 + 4*7^11 + O(7^12)", "valuation": 0}'),
    (['log', '-p', '5', '--json', '-N', '15', '6'],
     '{"abs_precision": 15, "digits": [1, 2, 4, 2, 0, 1, 4, 2, 3, 1, 2, 2, 0, 3], "text": "5^1 * 1 + 2*5 + 4*5^2 + 2*5^3 + 1*5^5 + 4*5^6 + 2*5^7 + 3*5^8 + 1*5^9 + 2*5^10 + 2*5^11 + 3*5^13 + O(5^14)", "valuation": 1}'),
    (['log', '-p', '2', '--json', '-N', '12', '5'],
     '{"abs_precision": 12, "digits": [1, 1, 1, 1, 1, 0, 0, 1, 1, 0], "text": "2^2 * 1 + 1*2 + 1*2^2 + 1*2^3 + 1*2^4 + 1*2^7 + 1*2^8 + O(2^10)", "valuation": 2}'),
    (['log', '-p', '3', '--json', '-N', '10', '10/7'],
     '{"abs_precision": 10, "digits": [1, 0, 1, 1, 1, 0, 1, 2, 0], "text": "3^1 * 1 + 1*3^2 + 1*3^3 + 1*3^4 + 1*3^6 + 2*3^7 + O(3^9)", "valuation": 1}'),
    (['hensel', '-p', '7', '--json', '-N', '12', '--f', 'X^2 - 2', '--x0', '3', '--z', '0'],
     '{"b_trace_exponents": [1, 2, 4, 8], "residual_prec": 16, "root": {"abs_precision": 12, "digits": [3, 1, 2, 6, 1, 2, 1, 2, 4, 6, 6, 2], "text": "3 + 1*7 + 2*7^2 + 6*7^3 + 1*7^4 + 2*7^5 + 1*7^6 + 2*7^7 + 4*7^8 + 6*7^9 + 6*7^10 + 2*7^11 + O(7^12)", "valuation": 0}, "uniqueness_exponent": 1}'),
    (['hensel', '-p', '7', '--json', '-N', '12', '--f', 'X^2 - 2', '--x0', '3', '--z', '0', '--fixed-point'],
     '{"b_trace_exponents": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], "residual_prec": 12, "root": {"abs_precision": 12, "digits": [3, 1, 2, 6, 1, 2, 1, 2, 4, 6, 6, 2], "text": "3 + 1*7 + 2*7^2 + 6*7^3 + 1*7^4 + 2*7^5 + 1*7^6 + 2*7^7 + 4*7^8 + 6*7^9 + 6*7^10 + 2*7^11 + O(7^12)", "valuation": 0}, "uniqueness_exponent": 1}'),
    (['hensel', '-p', '3', '--json', '-N', '10', '--f', 'X^2 - 4/9', '--x0', '11/3', '--z', '0', '--m', '-1'],
     '{"b_trace_exponents": [2, 4, 8], "residual_prec": 12, "root": {"abs_precision": 10, "digits": [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "text": "3^-1 * 2 + O(3^11)", "valuation": -1}, "uniqueness_exponent": 1}'),
    (['roots', '-p', '3', '--json', '-N', '10', '--f', 'X^3 - X'],
     '{"count": 3, "roots": [{"abs_precision": 10, "digits": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0], "text": "1 + O(3^10)", "valuation": 0}, {"abs_precision": 10, "digits": [2, 2, 2, 2, 2, 2, 2, 2, 2, 2], "text": "2 + 2*3 + 2*3^2 + 2*3^3 + 2*3^4 + 2*3^5 + 2*3^6 + 2*3^7 + 2*3^8 + 2*3^9 + O(3^10)", "valuation": 0}, {"abs_precision": 10, "digits": [], "text": "O(3^10)", "valuation": null}]}'),
    (['roots', '-p', '5', '--json', '-N', '8', '--f', 'X^2 + 1'],
     '{"count": 2, "roots": [{"abs_precision": 8, "digits": [2, 1, 2, 1, 3, 4, 2, 3], "text": "2 + 1*5 + 2*5^2 + 1*5^3 + 3*5^4 + 4*5^5 + 2*5^6 + 3*5^7 + O(5^8)", "valuation": 0}, {"abs_precision": 8, "digits": [3, 3, 2, 3, 1, 0, 2, 1], "text": "3 + 3*5 + 2*5^2 + 3*5^3 + 1*5^4 + 2*5^6 + 1*5^7 + O(5^8)", "valuation": 0}]}'),
    (['roots', '-p', '7', '--json', '-N', '6', '--f', 'X^3 - 2'],
     '{"count": 0, "roots": []}'),
    (['elem', '-p', '3', '--json', '--laurent', '-N', '8', '2 + 1*T + O(T^5)', 'mul', '1 + 2*T^2 + O(T^6)'],
     '{"abs_precision": 5, "digits": [2, 1, 1, 2, 0], "text": "2 + 1*T + 1*T^2 + 2*T^3 + O(T^5)", "valuation": 0}'),
    (['elem', '-p', '5', '--json', '--laurent', '-N', '8', 'T^-1 * 3 + 4*T + O(T^6)', 'div', '2 + 1*T + O(T^7)'],
     '{"abs_precision": 5, "digits": [4, 0, 0, 0, 0, 0], "text": "T^-1 * 4 + O(T^6)", "valuation": -1}'),
    (['elem', '-p', '7', '--json', '--laurent', '-N', '8', '3 + 5*T + 6*T^3 + O(T^7)', 'sub', '3 + 5*T + 1*T^4 + O(T^6)'],
     '{"abs_precision": 6, "digits": [6, 6, 0], "text": "T^3 * 6 + 6*T + O(T^3)", "valuation": 3}'),
    (['elem', '-p', '2', '--json', '--laurent', '-N', '12', '1 + 1*T + 1*T^5 + O(T^9)', 'add', '1 + 1*T^2 + O(T^11)'],
     '{"abs_precision": 9, "digits": [1, 1, 0, 0, 1, 0, 0, 0], "text": "T^1 * 1 + 1*T + 1*T^4 + O(T^8)", "valuation": 1}'),
    (['elem', '-p', '5', '--json', '--laurent', '-N', '10', 'T^2 * 4 + 1*T + 3*T^2 + O(T^7)'],
     '{"abs_precision": 9, "digits": [4, 1, 3, 0, 0, 0, 0], "text": "T^2 * 4 + 1*T + 3*T^2 + O(T^7)", "valuation": 2}'),
    (['inv1m', '-p', '5', '--json', '--laurent', '-N', '8', 'T^1 * 2 + 3*T + O(T^7)'],
     '{"abs_precision": 8, "digits": [1, 2, 2, 0, 1, 2, 2, 0], "text": "1 + 2*T + 2*T^2 + 1*T^4 + 2*T^5 + 2*T^6 + O(T^8)", "valuation": 0}'),
    (['inv1m', '-p', '3', '--json', '--laurent', '-N', '10', 'T^2 * 1 + 2*T^3 + O(T^8)'],
     '{"abs_precision": 10, "digits": [1, 0, 1, 0, 1, 2, 1, 1, 1, 0], "text": "1 + 1*T^2 + 1*T^4 + 2*T^5 + 1*T^6 + 1*T^7 + 1*T^8 + O(T^10)", "valuation": 0}'),
    (['hensel', '-p', '5', '--json', '--laurent', '-N', '8', '--f', 'X^2 - 4', '--x0', '2', '--z', 'T^1 * 1 + 3*T + O(T^7)'],
     '{"b_trace_exponents": [1, 2, 4], "residual_prec": 8, "root": {"abs_precision": 8, "digits": [2, 4, 3, 4, 1, 2, 3, 4], "text": "2 + 4*T + 3*T^2 + 4*T^3 + 1*T^4 + 2*T^5 + 3*T^6 + 4*T^7 + O(T^8)", "valuation": 0}, "uniqueness_exponent": 1}'),
    (['hensel', '-p', '7', '--json', '--laurent', '-N', '10', '--f', 'X^2 - 4', '--x0', '2', '--z', 'T^2 * 1 + 3*T + O(T^8)', '--fixed-point'],
     '{"b_trace_exponents": [2, 4, 6, 8], "residual_prec": 10, "root": {"abs_precision": 10, "digits": [2, 0, 2, 6, 6, 1, 6, 2, 3, 5], "text": "2 + 2*T^2 + 6*T^3 + 6*T^4 + 1*T^5 + 6*T^6 + 2*T^7 + 3*T^8 + 5*T^9 + O(T^10)", "valuation": 0}, "uniqueness_exponent": 2}'),
    (['roots', '-p', '3', '--json', '--laurent', '-N', '6', '--f', 'X^3 - X'],
     '{"count": 3, "roots": [{"abs_precision": 6, "digits": [1, 0, 0, 0, 0, 0], "text": "1 + O(T^6)", "valuation": 0}, {"abs_precision": 6, "digits": [2, 0, 0, 0, 0, 0], "text": "2 + O(T^6)", "valuation": 0}, {"abs_precision": 6, "digits": [], "text": "O(T^6)", "valuation": null}]}'),
    (['roots', '-p', '5', '--json', '--laurent', '-N', '6', '--f', 'X^2 - 1'],
     '{"count": 2, "roots": [{"abs_precision": 6, "digits": [1, 0, 0, 0, 0, 0], "text": "1 + O(T^6)", "valuation": 0}, {"abs_precision": 6, "digits": [4, 0, 0, 0, 0, 0], "text": "4 + O(T^6)", "valuation": 0}]}'),
    (['recenter', '-p', '5', '--json', '-N', '8', '--f', 'X^3 - 2*X + 7', '--x0', '3'],
     '{"coefficients": [{"abs_precision": 8, "digits": [3, 0, 1, 0, 0, 0, 0, 0], "text": "3 + 1*5^2 + O(5^8)", "valuation": 0}, {"abs_precision": 8, "digits": [1, 0, 0, 0, 0, 0], "text": "5^2 * 1 + O(5^6)", "valuation": 2}, {"abs_precision": 8, "digits": [4, 1, 0, 0, 0, 0, 0, 0], "text": "4 + 1*5 + O(5^8)", "valuation": 0}, {"abs_precision": 8, "digits": [1, 0, 0, 0, 0, 0, 0, 0], "text": "1 + O(5^8)", "valuation": 0}]}'),
    (['recenter', '-p', '3', '--json', '-N', '10', '--f', '1/2*X^2 + 4/3*X - 1', '--x0', '3^1 * 2 + O(3^6)'],
     '{"coefficients": [{"abs_precision": 6, "digits": [1, 2, 2, 0, 0, 0], "text": "1 + 2*3 + 2*3^2 + O(3^6)", "valuation": 0}, {"abs_precision": 7, "digits": [1, 1, 2, 0, 0, 0, 0, 0], "text": "3^-1 * 1 + 1*3 + 2*3^2 + O(3^8)", "valuation": -1}, {"abs_precision": 10, "digits": [2, 1, 1, 1, 1, 1, 1, 1, 1, 1], "text": "2 + 1*3 + 1*3^2 + 1*3^3 + 1*3^4 + 1*3^5 + 1*3^6 + 1*3^7 + 1*3^8 + 1*3^9 + O(3^10)", "valuation": 0}]}'),
    (['recenter', '-p', '2', '--json', '-N', '5', '--f', '1 + X + tail:exp', '--x0', '4', '--m', '2'],
     '{"coefficients": [{"abs_precision": 6, "digits": [1, 0, 0, 0, 1, 0], "text": "1 + 1*2^4 + O(2^6)", "valuation": 0}, {"abs_precision": 5, "digits": [1, 1, 1, 0], "text": "2^1 * 1 + 1*2 + 1*2^2 + O(2^4)", "valuation": 1}, {"abs_precision": 4, "digits": [1, 0, 1, 1, 0], "text": "2^-1 * 1 + 1*2^2 + 1*2^3 + O(2^5)", "valuation": -1}, {"abs_precision": 4, "digits": [1, 1, 1, 1, 0], "text": "2^-1 * 1 + 1*2 + 1*2^2 + 1*2^3 + O(2^5)", "valuation": -1}, {"abs_precision": 2, "digits": [1, 1, 1, 1, 0], "text": "2^-3 * 1 + 1*2 + 1*2^2 + 1*2^3 + O(2^5)", "valuation": -3}, {"abs_precision": 2, "digits": [1, 1, 0, 0, 0], "text": "2^-3 * 1 + 1*2 + O(2^5)", "valuation": -3}, {"abs_precision": 1, "digits": [1, 0, 0, 0, 0], "text": "2^-4 * 1 + O(2^5)", "valuation": -4}, {"abs_precision": -1, "digits": [1, 1, 1], "text": "2^-4 * 1 + 1*2 + 1*2^2 + O(2^3)", "valuation": -4}, {"abs_precision": -3, "digits": [1, 1, 1, 0], "text": "2^-7 * 1 + 1*2 + 1*2^2 + O(2^4)", "valuation": -7}, {"abs_precision": -5, "digits": [1, 1], "text": "2^-7 * 1 + 1*2 + O(2^2)", "valuation": -7}, {"abs_precision": -7, "digits": [1], "text": "2^-8 * 1 + O(2^1)", "valuation": -8}, {"abs_precision": -9, "digits": [], "text": "O(2^-9)", "valuation": null}]}'),
    (['recenter', '-p', '5', '--json', '--laurent', '-N', '8', '--f', 'X^3 + 2*X + 1', '--x0', '2 + 3*T + O(T^6)'],
     '{"coefficients": [{"abs_precision": 6, "digits": [3, 2, 4, 2, 0, 0], "text": "3 + 2*T + 4*T^2 + 2*T^3 + O(T^6)", "valuation": 0}, {"abs_precision": 6, "digits": [4, 1, 2, 0, 0, 0], "text": "4 + 1*T + 2*T^2 + O(T^6)", "valuation": 0}, {"abs_precision": 6, "digits": [1, 4, 0, 0, 0, 0], "text": "1 + 4*T + O(T^6)", "valuation": 0}, {"abs_precision": 8, "digits": [1, 0, 0, 0, 0, 0, 0, 0], "text": "1 + O(T^8)", "valuation": 0}]}'),
    (['deflate', '-p', '7', '--json', '-N', '8', '--f', 'X^2 - 4', '--x0', '2'],
     '{"coefficients": [{"abs_precision": 8, "digits": [2, 0, 0, 0, 0, 0, 0, 0], "text": "2 + O(7^8)", "valuation": 0}, {"abs_precision": 8, "digits": [1, 0, 0, 0, 0, 0, 0, 0], "text": "1 + O(7^8)", "valuation": 0}]}'),
    (['deflate', '-p', '5', '--json', '-N', '10', '--f', 'X^4 - 3*X^2 + 1/2*X + 6', '--x0', '5^-1 * 1 + O(5^3)', '--m', '-1'],
     '{"coefficients": [{"abs_precision": 0, "digits": [1, 0, 2], "text": "5^-3 * 1 + 2*5^2 + O(5^3)", "valuation": -3}, {"abs_precision": 1, "digits": [1, 0, 2], "text": "5^-2 * 1 + 2*5^2 + O(5^3)", "valuation": -2}, {"abs_precision": 2, "digits": [1, 0, 0], "text": "5^-1 * 1 + O(5^3)", "valuation": -1}, {"abs_precision": 10, "digits": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0], "text": "1 + O(5^10)", "valuation": 0}]}'),
    (['deflate', '-p', '3', '--json', '-N', '4', '--f', 'tail:exp', '--x0', '3^1 * 2 + O(3^4)', '--m', '1'],
     '{"coefficients": [{"abs_precision": 5, "digits": [1, 0, 2, 2, 2], "text": "1 + 2*3^2 + 2*3^3 + 2*3^4 + O(3^5)", "valuation": 0}, {"abs_precision": 4, "digits": [1, 1, 1], "text": "3^1 * 1 + 1*3 + 1*3^2 + O(3^3)", "valuation": 1}, {"abs_precision": 4, "digits": [2, 2, 2, 2, 0], "text": "3^-1 * 2 + 2*3 + 2*3^2 + 2*3^3 + O(3^5)", "valuation": -1}, {"abs_precision": 4, "digits": [2, 0, 2, 2, 0], "text": "3^-1 * 2 + 2*3^2 + 2*3^3 + O(3^5)", "valuation": -1}, {"abs_precision": 3, "digits": [2, 1, 1, 2], "text": "3^-1 * 2 + 1*3 + 1*3^2 + 2*3^3 + O(3^4)", "valuation": -1}, {"abs_precision": 3, "digits": [2, 2, 0, 1, 2], "text": "3^-2 * 2 + 2*3 + 1*3^3 + 2*3^4 + O(3^5)", "valuation": -2}, {"abs_precision": 2, "digits": [2, 0, 0], "text": "3^-1 * 2 + O(3^3)", "valuation": -1}, {"abs_precision": 1, "digits": [2, 1, 0, 1], "text": "3^-3 * 2 + 1*3 + 1*3^3 + O(3^4)", "valuation": -3}, {"abs_precision": 1, "digits": [1, 0, 1, 1, 2], "text": "3^-4 * 1 + 1*3^2 + 1*3^3 + 2*3^4 + O(3^5)", "valuation": -4}, {"abs_precision": 0, "digits": [1, 1, 0, 2], "text": "3^-4 * 1 + 1*3 + 2*3^3 + O(3^4)", "valuation": -4}, {"abs_precision": -1, "digits": [], "text": "O(3^-1)", "valuation": null}, {"abs_precision": -2, "digits": [2, 2, 1], "text": "3^-5 * 2 + 2*3 + 1*3^2 + O(3^3)", "valuation": -5}, {"abs_precision": -3, "digits": [2, 0], "text": "3^-5 * 2 + O(3^2)", "valuation": -5}, {"abs_precision": -4, "digits": [2], "text": "3^-5 * 2 + O(3^1)", "valuation": -5}, {"abs_precision": -5, "digits": [2], "text": "3^-6 * 2 + O(3^1)", "valuation": -6}, {"abs_precision": -6, "digits": [], "text": "O(3^-6)", "valuation": null}, {"abs_precision": -7, "digits": [], "text": "O(3^-7)", "valuation": null}, {"abs_precision": -8, "digits": [], "text": "O(3^-8)", "valuation": null}]}'),
    (['deflate', '-p', '3', '--json', '--laurent', '-N', '8', '--f', 'X^3 - X + 2', '--x0', 'T^1 * 1 + 2*T + O(T^7)', '--m', '1'],
     '{"coefficients": [{"abs_precision": 8, "digits": [2, 0, 1, 1, 1, 0, 0, 0], "text": "2 + 1*T^2 + 1*T^3 + 1*T^4 + O(T^8)", "valuation": 0}, {"abs_precision": 8, "digits": [1, 2, 0, 0, 0, 0, 0], "text": "T^1 * 1 + 2*T + O(T^7)", "valuation": 1}, {"abs_precision": 8, "digits": [1, 0, 0, 0, 0, 0, 0, 0], "text": "1 + O(T^8)", "valuation": 0}]}'),
]


@pytest.mark.parametrize("argv,expected", CASES,
                         ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in enumerate(CASES)])
def test_json_output_is_unchanged(argv, expected):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    assert buf.getvalue().strip() == expected
