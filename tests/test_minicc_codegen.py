"""Differential tests of the three mini-C backends.

Every program is executed on (a) the x86 emulator via ``compile_to_x86``,
(b) the Arm emulator via the Native baseline (``Lasagne().native``: LIR,
O2 and the ``repro.codegen`` backend) and (c) the LIR interpreter via
``compile_to_lir`` — all three must agree on the result and printed output.
"""


from repro.arm import ArmEmulator
from repro.core import Lasagne
from repro.lir import Interpreter, verify_module
from repro.minicc import compile_to_x86
from repro.minicc.frontend_lir import compile_to_lir
from repro.x86 import X86Emulator


def run_all(source: str):
    obj = compile_to_x86(source)
    x86 = X86Emulator(obj)
    rx = x86.run()

    arm = ArmEmulator(Lasagne().native(source).program)
    ra = arm.run()

    lir = compile_to_lir(source)
    verify_module(lir)
    interp = Interpreter(lir)
    rl = interp.run("main")

    assert rx == ra == rl, (rx, ra, rl)
    assert x86.output == arm.output == interp.output
    return rx, x86.output


class TestScalars:
    def test_arithmetic(self):
        r, _ = run_all("int main() { return (7 + 3) * 2 - 5; }")
        assert r == 15

    def test_division_and_modulo(self):
        r, _ = run_all("int main() { return 17 / 5 * 100 + 17 % 5; }")
        assert r == 302

    def test_negative_numbers(self):
        r, _ = run_all("int main() { return -7 / 2; }")
        assert r == -3

    def test_bitwise(self):
        r, _ = run_all("int main() { return (12 & 10) | (1 ^ 3); }")
        assert r == (12 & 10) | (1 ^ 3)

    def test_shifts(self):
        r, _ = run_all("int main() { return (1 << 10) >> 3; }")
        assert r == 128

    def test_comparisons_produce_bool(self):
        r, _ = run_all("int main() { return (3 < 5) + (5 <= 5) + (7 > 9); }")
        assert r == 2

    def test_logical_short_circuit(self):
        src = """
        int g = 0;
        int bump() { g = g + 1; return 1; }
        int main() {
          int a = 0 && bump();
          int b = 1 || bump();
          return g * 10 + a + b;
        }
        """
        r, _ = run_all(src)
        assert r == 1  # bump never ran

    def test_unary_not_and_complement(self):
        r, _ = run_all("int main() { return !0 * 10 + !5 + (~0 == -1); }")
        assert r == 11


class TestDoubles:
    def test_double_arithmetic(self):
        r, out = run_all(
            "int main() { double d = 1.5 * 4.0 + 1.0; print_f(d); "
            "return (int)d; }"
        )
        assert r == 7
        assert out == ["7.000000"]

    def test_double_comparisons(self):
        r, _ = run_all(
            "int main() { double a = 1.5; double b = 2.5; "
            "return (a < b) * 100 + (a >= b) * 10 + (a == a); }"
        )
        assert r == 101

    def test_int_double_conversions(self):
        r, _ = run_all(
            "int main() { int i = 7; double d = (double)i / 2.0; "
            "return (int)(d * 10.0); }"
        )
        assert r == 35

    def test_sqrt_builtin(self):
        r, _ = run_all("int main() { return (int)sqrt(144.0); }")
        assert r == 12

    def test_double_params_and_return(self):
        src = """
        double mix(double a, int k, double b) { return a * (double)k + b; }
        int main() { return (int)mix(1.5, 4, 0.5); }
        """
        r, _ = run_all(src)
        assert r == 6

    def test_negative_double(self):
        r, _ = run_all("int main() { double d = -2.5; return (int)(d * -4.0); }")
        assert r == 10


class TestMemory:
    def test_global_arrays(self):
        src = """
        int a[8];
        int main() {
          for (int i = 0; i < 8; i = i + 1) { a[i] = i * i; }
          int s = 0;
          for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; }
          return s;
        }
        """
        r, _ = run_all(src)
        assert r == sum(i * i for i in range(8))

    def test_pointers_and_address_of(self):
        src = """
        int g = 5;
        int main() {
          int *p = &g;
          *p = *p + 37;
          return g;
        }
        """
        r, _ = run_all(src)
        assert r == 42

    def test_pointer_indexing_params(self):
        src = """
        int a[4];
        int get(int *p, int i) { return p[i]; }
        int main() { a[2] = 99; return get(a, 2); }
        """
        r, _ = run_all(src)
        assert r == 99

    def test_char_arrays_and_strings(self):
        src = """
        char buf[8];
        int main() {
          char *s = "hi!";
          for (int i = 0; i < 3; i = i + 1) { buf[i] = s[i]; }
          return buf[0] + buf[1] + buf[2];
        }
        """
        r, _ = run_all(src)
        assert r == ord("h") + ord("i") + ord("!")

    def test_malloc(self):
        src = """
        int main() {
          int *p = (int*)malloc(32);
          p[0] = 11; p[3] = 31;
          return p[0] + p[3];
        }
        """
        r, _ = run_all(src)
        assert r == 42

    def test_double_arrays(self):
        src = """
        double d[4];
        int main() {
          d[0] = 0.5; d[1] = 1.5; d[2] = 2.5; d[3] = 3.5;
          double s = 0.0;
          for (int i = 0; i < 4; i = i + 1) { s = s + d[i]; }
          return (int)s;
        }
        """
        r, _ = run_all(src)
        assert r == 8

    def test_pointer_difference(self):
        src = """
        int a[8];
        int main() { int *p = &a[6]; int *q = &a[2]; return p - q; }
        """
        r, _ = run_all(src)
        assert r == 4


class TestControlFlow:
    def test_while_break_continue(self):
        src = """
        int main() {
          int s = 0;
          int i = 0;
          while (1) {
            i = i + 1;
            if (i > 10) { break; }
            if (i % 2 == 0) { continue; }
            s = s + i;
          }
          return s;
        }
        """
        r, _ = run_all(src)
        assert r == 25

    def test_nested_loops(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 5; i = i + 1) {
            for (int j = 0; j < i; j = j + 1) { s = s + 1; }
          }
          return s;
        }
        """
        r, _ = run_all(src)
        assert r == 10

    def test_recursion(self):
        src = """
        int fib(int n) {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(12); }
        """
        r, _ = run_all(src)
        assert r == 144

    def test_many_params(self):
        src = """
        int six(int a, int b, int c, int d, int e, int f) {
          return a + 10*b + 100*c + 1000*d + 10000*e + 100000*f;
        }
        int main() { return six(1, 2, 3, 4, 5, 6); }
        """
        r, _ = run_all(src)
        assert r == 654321


class TestConcurrency:
    def test_spawn_join(self):
        src = """
        int worker(int t) { return t * 10; }
        int main() {
          int t1 = spawn(worker, 1);
          int t2 = spawn(worker, 2);
          return join(t1) + join(t2);
        }
        """
        r, _ = run_all(src)
        assert r == 30

    def test_atomic_add(self):
        src = """
        int ctr = 0;
        int worker(int t) {
          for (int i = 0; i < 25; i = i + 1) { atomic_add(&ctr, 1); }
          return 0;
        }
        int main() {
          int t1 = spawn(worker, 0);
          int t2 = spawn(worker, 0);
          join(t1); join(t2);
          return ctr;
        }
        """
        r, _ = run_all(src)
        assert r == 50

    def test_atomic_cas_and_xchg(self):
        src = """
        int lockvar = 0;
        int main() {
          int old = atomic_cas(&lockvar, 0, 1);
          int old2 = atomic_cas(&lockvar, 0, 2);
          int old3 = atomic_xchg(&lockvar, 9);
          return old * 100 + old2 * 10 + old3;
        }
        """
        r, _ = run_all(src)
        assert r == 0 * 100 + 1 * 10 + 1

    def test_fence_is_emitted(self):
        obj = compile_to_x86("int main() { fence(); return 0; }")
        from repro.lifter import disassemble_function

        body = disassemble_function(obj, "main")
        assert any(i.mnemonic == "mfence" for i in body)


class TestRegisterAllocation:
    def test_register_locals_survive_calls(self):
        src = """
        int id(int x) { return x; }
        int main() {
          int acc = 0;
          for (int i = 0; i < 5; i = i + 1) { acc = acc + id(i); }
          return acc;
        }
        """
        r, _ = run_all(src)
        assert r == 10

    def test_addressed_locals_stay_in_memory(self):
        src = """
        int addone(int *p) { *p = *p + 1; return 0; }
        int main() {
          int x = 41;
          addone(&x);
          return x;
        }
        """
        r, _ = run_all(src)
        assert r == 42

    def test_leaf_function_double_registers(self):
        src = """
        double hypot2(double a, double b) {
          double aa = a * a;
          double bb = b * b;
          return aa + bb;
        }
        int main() { return (int)hypot2(3.0, 4.0); }
        """
        r, _ = run_all(src)
        assert r == 25


class TestSyntaxSugar:
    """Compound assignment and ++/-- desugar to plain assignments."""

    def test_compound_assignment(self):
        src = """
        int main() {
          int x = 10;
          x += 5; x -= 2; x *= 3; x /= 2; x %= 11;
          x <<= 2; x >>= 1; x &= 30; x |= 1; x ^= 6;
          return x;
        }
        """
        expected = 10
        expected += 5; expected -= 2; expected *= 3
        expected //= 2; expected %= 11
        expected <<= 2; expected >>= 1
        expected &= 30; expected |= 1; expected ^= 6
        r, _ = run_all(src)
        assert r == expected

    def test_increment_decrement(self):
        src = """
        int main() {
          int x = 5;
          x++;
          ++x;
          x--;
          return x;
        }
        """
        r, _ = run_all(src)
        assert r == 6

    def test_increment_in_for_loop(self):
        src = """
        int main() {
          int s = 0;
          for (int i = 0; i < 10; i++) { s += i; }
          return s;
        }
        """
        r, _ = run_all(src)
        assert r == 45

    def test_compound_on_array_element(self):
        src = """
        int a[4];
        int main() {
          a[2] = 7;
          a[2] += 35;
          a[2]++;
          return a[2];
        }
        """
        r, _ = run_all(src)
        assert r == 43

    def test_compound_through_pointer(self):
        src = """
        int g = 40;
        int main() {
          int *p = &g;
          *p += 2;
          return g;
        }
        """
        r, _ = run_all(src)
        assert r == 42

    def test_compound_on_double(self):
        src = """
        int main() {
          double d = 1.5;
          d *= 4.0;
          d += 1.0;
          return (int)d;
        }
        """
        r, _ = run_all(src)
        assert r == 7
