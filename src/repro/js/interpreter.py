"""Tree-walking evaluator for the JavaScript subset.

Feature set: closures, ``this`` binding on method calls, ``new`` with
host constructors, arrays/objects, string and array built-in methods,
``for``/``for-in``/``while`` loops, and short-circuit logic — everything
the synthetic AJAX pages (and the thesis' YouTube scripts) exercise.

Two pieces exist specifically for the crawler:

* a **call stack** of :class:`~repro.js.debugger.StackFrame` objects with
  function names and *actual argument values*, which the hot-node
  ``StackInfo`` mechanism inspects when ``XMLHttpRequest.open`` fires;
* an attachable :class:`~repro.js.debugger.Debugger` whose ``on_enter``
  may intercept a call and return a cached result without executing the
  body (the Rhino-debugger trick of section 4.4.2).

The interpreter counts evaluation steps so the browser can charge
virtual time for script execution, and aborts scripts that exceed
``max_steps`` (the thesis' guard against infinite loops, section 3.2).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.errors import JsReferenceError, JsRuntimeError, JsSyntaxError, JsTypeError
from repro.js import ast
from repro.obs import NULL_RECORDER
from repro.js.debugger import CallStack, Debugger, StackFrame
from repro.js.environment import Environment
from repro.js.parser import parse_expression, parse_program
from repro.js.values import (
    HostConstructor,
    HostObject,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
    is_callable,
    is_truthy,
    to_number,
    to_string,
    type_of,
)


class JsStepLimitError(JsRuntimeError):
    """A script exceeded the interpreter's step budget (infinite loop guard)."""


class JsThrownValue(JsRuntimeError):
    """A script-level ``throw`` whose value no script handler caught."""

    def __init__(self, value: Any) -> None:
        super().__init__(f"uncaught JavaScript exception: {to_string(value)}")
        self.value = value


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class Interpreter:
    """Evaluates parsed programs against a global environment."""

    #: Script call-stack ceiling.  Each JS frame costs ~15 Python frames
    #: (eval -> invoke -> run_frame -> exec chains), so this must stay
    #: well under ``sys.getrecursionlimit()`` for runaway recursion to
    #: surface as a catchable JsRuntimeError (the engines' "maximum call
    #: stack size exceeded") rather than a Python RecursionError.
    MAX_CALL_DEPTH = 32

    def __init__(self, max_steps: int = 2_000_000, recorder=NULL_RECORDER) -> None:
        self.global_env = Environment()
        self.call_stack = CallStack()
        self.max_steps = max_steps
        self.steps = 0
        self._debugger: Optional[Debugger] = None
        self._current_line = 0
        #: Parsed programs by source text.  Handlers repeat on every
        #: dispatch of a page and the interpreter never mutates an AST,
        #: so each distinct source is parsed once per interpreter.
        self._programs: dict[str, ast.Program] = {}
        #: Trace bus for ``js_fn`` function-frame spans.  Only consulted
        #: when its span layer is on; the default NULL_RECORDER keeps
        #: `_invoke` on the historical fast path.
        self.recorder = recorder
        self._install_builtins()

    # -- public API -------------------------------------------------------------

    def attach_debugger(self, debugger: Optional[Debugger]) -> None:
        """Attach (or with ``None`` detach) a debugger."""
        self._debugger = debugger

    @property
    def debugger(self) -> Optional[Debugger]:
        return self._debugger

    def run(self, source: str) -> Any:
        """Parse and execute ``source``; returns the last statement's value."""
        program = self._programs.get(source)
        if program is None:
            # A syntax error propagates before anything is cached.
            program = self._programs[source] = parse_program(source)
        return self.execute_program(program)

    def eval_expression(self, source: str) -> Any:
        """Parse and evaluate a single expression."""
        return self._eval(parse_expression(source), self.global_env)

    def execute_program(self, program: ast.Program) -> Any:
        """Execute an already-parsed program in the global scope."""
        self._hoist(program.body, self.global_env)
        result: Any = UNDEFINED
        try:
            for statement in program.body:
                result = self._exec(statement, self.global_env)
        except _Return:
            raise JsSyntaxError("return statement outside function") from None
        except _Break:
            raise JsSyntaxError("break statement outside loop") from None
        except _Continue:
            raise JsSyntaxError("continue statement outside loop") from None
        return result

    def call_function(self, function: Any, args: list[Any], this: Any = UNDEFINED) -> Any:
        """Invoke a JS or native function from Python."""
        return self._invoke(function, args, this, line=self._current_line)

    def define_global(self, name: str, value: Any) -> None:
        """Bind ``name`` in the global scope (host objects, builtins)."""
        self.global_env.declare(name, value)

    # -- builtins ---------------------------------------------------------------

    def _install_builtins(self) -> None:
        env = self.global_env
        env.declare("undefined", UNDEFINED)
        env.declare("NaN", float("nan"))
        env.declare("Infinity", float("inf"))
        env.declare("parseInt", NativeFunction("parseInt", _parse_int))
        env.declare("parseFloat", NativeFunction("parseFloat", _parse_float))
        env.declare("isNaN", NativeFunction("isNaN", _is_nan))
        env.declare("String", NativeFunction("String", _to_string_builtin))
        env.declare("Number", NativeFunction("Number", _to_number_builtin))
        env.declare("encodeURIComponent", NativeFunction("encodeURIComponent", _encode_uri))
        math_object = JSObject(
            {
                "floor": NativeFunction("floor", _math1(math.floor)),
                "ceil": NativeFunction("ceil", _math1(math.ceil)),
                "round": NativeFunction("round", _math1(lambda x: math.floor(x + 0.5))),
                "abs": NativeFunction("abs", _math1(abs)),
                "max": NativeFunction("max", _math_var(max)),
                "min": NativeFunction("min", _math_var(min)),
                "sqrt": NativeFunction("sqrt", _math1(math.sqrt)),
                "pow": NativeFunction("pow", _math2(math.pow)),
                "PI": math.pi,
            }
        )
        env.declare("Math", math_object)
        json_object = JSObject(
            {
                "parse": NativeFunction("parse", _json_parse),
                "stringify": NativeFunction("stringify", _json_stringify),
            }
        )
        env.declare("JSON", json_object)

    # -- statement execution ------------------------------------------------------

    def _tick(self, node: ast.Node) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise JsStepLimitError(
                f"script exceeded {self.max_steps} interpreter steps (infinite loop?)"
            )
        if node.line and node.line != self._current_line:
            self._current_line = node.line
            if self._debugger is not None:
                self._debugger.on_line(node.line)

    @staticmethod
    def _hoist(body: list[ast.Statement], env: Environment) -> None:
        """Pre-declare function declarations so forward calls work."""
        for statement in body:
            if isinstance(statement, ast.FunctionDeclaration):
                env.declare(
                    statement.name,
                    JSFunction(statement.name, statement.params, statement.body, env),
                )

    def _exec(self, node: ast.Statement, env: Environment) -> Any:
        self._tick(node)
        method = getattr(self, f"_exec_{type(node).__name__}", None)
        if method is None:
            raise JsRuntimeError(f"cannot execute {type(node).__name__}")
        return method(node, env)

    def _exec_Program(self, node: ast.Program, env: Environment) -> Any:
        self._hoist(node.body, env)
        result: Any = UNDEFINED
        for statement in node.body:
            result = self._exec(statement, env)
        return result

    def _exec_Block(self, node: ast.Block, env: Environment) -> Any:
        self._hoist(node.body, env)
        result: Any = UNDEFINED
        for statement in node.body:
            result = self._exec(statement, env)
        return result

    def _exec_VarDeclaration(self, node: ast.VarDeclaration, env: Environment) -> Any:
        for name, initializer in node.declarations:
            value = self._eval(initializer, env) if initializer is not None else UNDEFINED
            env.declare(name, value)
        return UNDEFINED

    def _exec_FunctionDeclaration(self, node: ast.FunctionDeclaration, env: Environment) -> Any:
        env.declare(node.name, JSFunction(node.name, node.params, node.body, env))
        return UNDEFINED

    def _exec_ExpressionStatement(self, node: ast.ExpressionStatement, env: Environment) -> Any:
        return self._eval(node.expression, env)

    def _exec_IfStatement(self, node: ast.IfStatement, env: Environment) -> Any:
        if is_truthy(self._eval(node.test, env)):
            return self._exec(node.consequent, env)
        if node.alternate is not None:
            return self._exec(node.alternate, env)
        return UNDEFINED

    def _exec_WhileStatement(self, node: ast.WhileStatement, env: Environment) -> Any:
        while is_truthy(self._eval(node.test, env)):
            self._tick(node)
            try:
                self._exec(node.body, env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_DoWhileStatement(self, node: ast.DoWhileStatement, env: Environment) -> Any:
        while True:
            self._tick(node)
            try:
                self._exec(node.body, env)
            except _Break:
                break
            except _Continue:
                pass
            if not is_truthy(self._eval(node.test, env)):
                break
        return UNDEFINED

    def _exec_SwitchStatement(self, node: ast.SwitchStatement, env: Environment) -> Any:
        discriminant = self._eval(node.discriminant, env)
        matched = False
        default_index: Optional[int] = None
        try:
            for index, (test, body) in enumerate(node.cases):
                if not matched:
                    if test is None:
                        default_index = index
                        continue
                    if not _strict_equals(discriminant, self._eval(test, env)):
                        continue
                    matched = True
                for statement in body:
                    self._exec(statement, env)
            if not matched and default_index is not None:
                # Fall through from the default clause onward.
                for _, body in node.cases[default_index:]:
                    for statement in body:
                        self._exec(statement, env)
        except _Break:
            pass
        return UNDEFINED

    def _exec_ThrowStatement(self, node: ast.ThrowStatement, env: Environment) -> Any:
        raise JsThrownValue(self._eval(node.argument, env))

    def _exec_TryStatement(self, node: ast.TryStatement, env: Environment) -> Any:
        try:
            self._exec(node.block, env)
        except JsThrownValue as thrown:
            if node.catch_block is not None:
                catch_env = Environment(env)
                catch_env.declare(node.catch_param or "exception", thrown.value)
                self._exec(node.catch_block, catch_env)
            else:
                raise
        except JsRuntimeError as error:
            # Runtime errors are catchable like browser engines do —
            # except the step-limit guard, which must kill the script.
            if isinstance(error, JsStepLimitError):
                raise
            if node.catch_block is not None:
                catch_env = Environment(env)
                catch_env.declare(node.catch_param or "exception", str(error))
                self._exec(node.catch_block, catch_env)
            else:
                raise
        finally:
            if node.finally_block is not None:
                self._exec(node.finally_block, env)
        return UNDEFINED

    def _exec_ForStatement(self, node: ast.ForStatement, env: Environment) -> Any:
        if node.init is not None:
            self._exec(node.init, env)
        while node.test is None or is_truthy(self._eval(node.test, env)):
            self._tick(node)
            try:
                self._exec(node.body, env)
            except _Break:
                break
            except _Continue:
                pass
            if node.update is not None:
                self._eval(node.update, env)
        return UNDEFINED

    def _exec_ForInStatement(self, node: ast.ForInStatement, env: Environment) -> Any:
        obj = self._eval(node.obj, env)
        if isinstance(obj, JSObject):
            keys = obj.keys()
        elif isinstance(obj, JSArray):
            keys = [str(index) for index in range(obj.length)]
        elif isinstance(obj, HostObject):
            keys = obj.js_keys()
        elif obj is UNDEFINED or obj is None:
            keys = []
        else:
            raise JsTypeError(f"cannot enumerate {type_of(obj)}")
        if node.declare:
            env.declare(node.variable)
        for key in keys:
            self._tick(node)
            env.assign(node.variable, key)
            try:
                self._exec(node.body, env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_ReturnStatement(self, node: ast.ReturnStatement, env: Environment) -> Any:
        value = self._eval(node.argument, env) if node.argument is not None else UNDEFINED
        raise _Return(value)

    def _exec_BreakStatement(self, node: ast.BreakStatement, env: Environment) -> Any:
        raise _Break()

    def _exec_ContinueStatement(self, node: ast.ContinueStatement, env: Environment) -> Any:
        raise _Continue()

    def _exec_EmptyStatement(self, node: ast.EmptyStatement, env: Environment) -> Any:
        return UNDEFINED

    # -- expression evaluation ------------------------------------------------------

    def _eval(self, node: ast.Expression, env: Environment) -> Any:
        self._tick(node)
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            raise JsRuntimeError(f"cannot evaluate {type(node).__name__}")
        return method(node, env)

    def _eval_NumberLiteral(self, node: ast.NumberLiteral, env: Environment) -> Any:
        return node.value

    def _eval_StringLiteral(self, node: ast.StringLiteral, env: Environment) -> Any:
        return node.value

    def _eval_BooleanLiteral(self, node: ast.BooleanLiteral, env: Environment) -> Any:
        return node.value

    def _eval_NullLiteral(self, node: ast.NullLiteral, env: Environment) -> Any:
        return None

    def _eval_UndefinedLiteral(self, node: ast.UndefinedLiteral, env: Environment) -> Any:
        return UNDEFINED

    def _eval_Identifier(self, node: ast.Identifier, env: Environment) -> Any:
        return env.get(node.name)

    def _eval_ThisExpression(self, node: ast.ThisExpression, env: Environment) -> Any:
        if env.is_declared("this"):
            return env.get("this")
        return UNDEFINED

    def _eval_ArrayLiteral(self, node: ast.ArrayLiteral, env: Environment) -> Any:
        return JSArray([self._eval(element, env) for element in node.elements])

    def _eval_ObjectLiteral(self, node: ast.ObjectLiteral, env: Environment) -> Any:
        return JSObject({key: self._eval(value, env) for key, value in node.properties})

    def _eval_FunctionExpression(self, node: ast.FunctionExpression, env: Environment) -> Any:
        return JSFunction(node.name, node.params, node.body, env)

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: Environment) -> Any:
        if node.operator == "typeof":
            # typeof tolerates unresolvable identifiers.
            if isinstance(node.operand, ast.Identifier) and not env.is_declared(
                node.operand.name
            ):
                return "undefined"
            return type_of(self._eval(node.operand, env))
        if node.operator == "delete":
            return self._eval_delete(node.operand, env)
        value = self._eval(node.operand, env)
        if node.operator == "!":
            return not is_truthy(value)
        if node.operator == "-":
            return -to_number(value)
        if node.operator == "+":
            return to_number(value)
        raise JsRuntimeError(f"unknown unary operator {node.operator}")

    def _eval_delete(self, target: ast.Expression, env: Environment) -> bool:
        if isinstance(target, ast.Member):
            obj = self._eval(target.obj, env)
            if isinstance(obj, JSObject):
                return obj.delete(target.property)
            raise JsTypeError("delete is only supported on plain objects")
        if isinstance(target, ast.Index):
            obj = self._eval(target.obj, env)
            key = self._eval(target.index, env)
            if isinstance(obj, JSObject):
                return obj.delete(to_string(key))
            raise JsTypeError("delete is only supported on plain objects")
        return True

    def _eval_UpdateOp(self, node: ast.UpdateOp, env: Environment) -> Any:
        old = to_number(self._read_target(node.target, env))
        new = old + 1 if node.operator == "++" else old - 1
        self._write_target(node.target, new, env)
        return new if node.prefix else old

    def _eval_BinaryOp(self, node: ast.BinaryOp, env: Environment) -> Any:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        return _binary(node.operator, left, right)

    def _eval_LogicalOp(self, node: ast.LogicalOp, env: Environment) -> Any:
        left = self._eval(node.left, env)
        if node.operator == "&&":
            return self._eval(node.right, env) if is_truthy(left) else left
        return left if is_truthy(left) else self._eval(node.right, env)

    def _eval_Conditional(self, node: ast.Conditional, env: Environment) -> Any:
        if is_truthy(self._eval(node.test, env)):
            return self._eval(node.consequent, env)
        return self._eval(node.alternate, env)

    def _eval_Assignment(self, node: ast.Assignment, env: Environment) -> Any:
        if node.operator == "=":
            value = self._eval(node.value, env)
        else:
            current = self._read_target(node.target, env)
            operand = self._eval(node.value, env)
            value = _binary(node.operator[0], current, operand)
        self._write_target(node.target, value, env)
        return value

    def _read_target(self, target: ast.Expression, env: Environment) -> Any:
        if isinstance(target, ast.Identifier):
            return env.get(target.name)
        if isinstance(target, ast.Member):
            return self._get_member(self._eval(target.obj, env), target.property)
        if isinstance(target, ast.Index):
            obj = self._eval(target.obj, env)
            key = self._eval(target.index, env)
            return self._get_indexed(obj, key)
        raise JsTypeError("invalid assignment target")

    def _write_target(self, target: ast.Expression, value: Any, env: Environment) -> None:
        if isinstance(target, ast.Identifier):
            env.assign(target.name, value)
            return
        if isinstance(target, ast.Member):
            self._set_member(self._eval(target.obj, env), target.property, value)
            return
        if isinstance(target, ast.Index):
            obj = self._eval(target.obj, env)
            key = self._eval(target.index, env)
            self._set_indexed(obj, key, value)
            return
        raise JsTypeError("invalid assignment target")

    def _eval_Member(self, node: ast.Member, env: Environment) -> Any:
        return self._get_member(self._eval(node.obj, env), node.property)

    def _eval_Index(self, node: ast.Index, env: Environment) -> Any:
        obj = self._eval(node.obj, env)
        key = self._eval(node.index, env)
        return self._get_indexed(obj, key)

    def _eval_Call(self, node: ast.Call, env: Environment) -> Any:
        this: Any = UNDEFINED
        if isinstance(node.callee, ast.Member):
            this = self._eval(node.callee.obj, env)
            function = self._get_member(this, node.callee.property)
        elif isinstance(node.callee, ast.Index):
            this = self._eval(node.callee.obj, env)
            key = self._eval(node.callee.index, env)
            function = self._get_indexed(this, key)
        else:
            function = self._eval(node.callee, env)
        args = [self._eval(argument, env) for argument in node.arguments]
        return self._invoke(function, args, this, node.line)

    def _eval_New(self, node: ast.New, env: Environment) -> Any:
        callee = self._eval(node.callee, env)
        args = [self._eval(argument, env) for argument in node.arguments]
        if isinstance(callee, HostConstructor):
            return callee.construct(self, args)
        if isinstance(callee, JSFunction):
            instance = JSObject()
            self._invoke(callee, args, instance, node.line)
            return instance
        raise JsTypeError(f"{to_string(callee)} is not a constructor")

    # -- invocation -------------------------------------------------------------------

    def _invoke(self, function: Any, args: list[Any], this: Any, line: int) -> Any:
        if not is_callable(function):
            raise JsTypeError(f"{to_string(function)} is not a function")
        if isinstance(function, HostConstructor):
            return function.construct(self, args)
        name = getattr(function, "name", "<anonymous>") or "<anonymous>"
        native = isinstance(function, NativeFunction)
        frame = StackFrame(
            function_name=name,
            arguments=list(args),
            line=line,
            native=native,
        )
        if self._debugger is not None:
            intercept = self._debugger.on_enter(frame)
            if intercept is not None:
                return intercept.value
        if not native and self.recorder.spans:
            # Function-frame spans feed the hot-node attribution
            # flamegraphs; native host calls are envelope noise and
            # stay span-free.
            with self.recorder.span("js_fn", name=name, line=line):
                return self._run_frame(function, args, this, frame, native)
        return self._run_frame(function, args, this, frame, native)

    def _run_frame(
        self,
        function: Any,
        args: list[Any],
        this: Any,
        frame: StackFrame,
        native: bool,
    ) -> Any:
        if len(self.call_stack) >= self.MAX_CALL_DEPTH:
            raise JsRuntimeError("maximum call stack size exceeded")
        self.call_stack.push(frame)
        try:
            if native:
                result = function.fn(self, this, args)
            else:
                result = self._call_js_function(function, args, this)
        except JsRuntimeError as error:
            if self._debugger is not None:
                self._debugger.on_exception(frame, error)
            raise
        except (_Break, _Continue):
            raise JsRuntimeError("break/continue outside loop") from None
        finally:
            self.call_stack.pop()
        if self._debugger is not None:
            self._debugger.on_exit(frame, result)
        return result

    def _call_js_function(self, function: JSFunction, args: list[Any], this: Any) -> Any:
        env = Environment(function.closure)
        env.declare("this", this)
        env.declare("arguments", JSArray(list(args)))
        for index, param in enumerate(function.params):
            env.declare(param, args[index] if index < len(args) else UNDEFINED)
        self._hoist(function.body.body, env)
        try:
            for statement in function.body.body:
                self._exec(statement, env)
        except _Return as ret:
            return ret.value
        return UNDEFINED

    # -- member protocol -----------------------------------------------------------------

    def _get_member(self, obj: Any, name: str) -> Any:
        if obj is UNDEFINED or obj is None:
            raise JsTypeError(f"cannot read property {name!r} of {to_string(obj)}")
        if isinstance(obj, HostObject):
            return obj.js_get(name)
        if isinstance(obj, JSObject):
            return obj.get(name)
        if isinstance(obj, JSArray):
            return _array_member(obj, name)
        if isinstance(obj, str):
            return _string_member(obj, name)
        if isinstance(obj, (int, float)):
            return _number_member(obj, name)
        raise JsTypeError(f"cannot read property {name!r} of {type_of(obj)}")

    def _set_member(self, obj: Any, name: str, value: Any) -> None:
        if isinstance(obj, HostObject):
            obj.js_set(name, value)
            return
        if isinstance(obj, JSObject):
            obj.set(name, value)
            return
        if isinstance(obj, JSArray) and name == "length":
            _array_set_length(obj, value)
            return
        raise JsTypeError(f"cannot set property {name!r} on {type_of(obj)}")

    def _get_indexed(self, obj: Any, key: Any) -> Any:
        if isinstance(obj, JSArray) and isinstance(key, (int, float)) and not isinstance(key, bool):
            return obj.get_index(int(key))
        if isinstance(obj, str) and isinstance(key, (int, float)) and not isinstance(key, bool):
            index = int(key)
            return obj[index] if 0 <= index < len(obj) else UNDEFINED
        return self._get_member(obj, to_string(key))

    def _set_indexed(self, obj: Any, key: Any, value: Any) -> None:
        if isinstance(obj, JSArray) and isinstance(key, (int, float)) and not isinstance(key, bool):
            obj.set_index(int(key), value)
            return
        self._set_member(obj, to_string(key), value)


# -- operators -------------------------------------------------------------------


def _binary(operator: str, left: Any, right: Any) -> Any:
    if operator == "+":
        if isinstance(left, str) or isinstance(right, str):
            return to_string(left) + to_string(right)
        return to_number(left) + to_number(right)
    if operator == "-":
        return to_number(left) - to_number(right)
    if operator == "*":
        return to_number(left) * to_number(right)
    if operator == "/":
        divisor = to_number(right)
        dividend = to_number(left)
        if divisor == 0:
            if dividend != dividend or dividend == 0:
                return float("nan")
            return float("inf") if dividend > 0 else float("-inf")
        return dividend / divisor
    if operator == "%":
        divisor = to_number(right)
        if divisor == 0:
            return float("nan")
        return math.fmod(to_number(left), divisor)
    if operator in ("==", "!="):
        equal = _loose_equals(left, right)
        return equal if operator == "==" else not equal
    if operator in ("===", "!=="):
        equal = _strict_equals(left, right)
        return equal if operator == "===" else not equal
    if operator in ("<", ">", "<=", ">="):
        return _compare(operator, left, right)
    if operator == "in":
        return _in_operator(left, right)
    raise JsRuntimeError(f"unknown binary operator {operator}")


def _strict_equals(left: Any, right: Any) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    return left is right


def _loose_equals(left: Any, right: Any) -> bool:
    null_like = (None, UNDEFINED)
    if left in null_like and right in null_like:
        return True
    if left in null_like or right in null_like:
        return False
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    if isinstance(left, (bool, int, float)) and isinstance(right, (bool, int, float)):
        return to_number(left) == to_number(right)
    if isinstance(left, str) and isinstance(right, (int, float)):
        return to_number(left) == to_number(right)
    if isinstance(left, (int, float)) and isinstance(right, str):
        return to_number(left) == to_number(right)
    return left is right


def _compare(operator: str, left: Any, right: Any) -> bool:
    if isinstance(left, str) and isinstance(right, str):
        pairs = {"<": left < right, ">": left > right, "<=": left <= right, ">=": left >= right}
        return pairs[operator]
    lnum, rnum = to_number(left), to_number(right)
    if lnum != lnum or rnum != rnum:
        return False
    pairs = {"<": lnum < rnum, ">": lnum > rnum, "<=": lnum <= rnum, ">=": lnum >= rnum}
    return pairs[operator]


def _in_operator(key: Any, obj: Any) -> bool:
    name = to_string(key)
    if isinstance(obj, JSObject):
        return name in obj.properties
    if isinstance(obj, JSArray):
        try:
            index = int(name)
        except ValueError:
            return False
        return 0 <= index < obj.length
    if isinstance(obj, HostObject):
        return name in obj.js_keys()
    raise JsTypeError("'in' requires an object")


# -- built-in members ---------------------------------------------------------------


def _array_member(array: JSArray, name: str) -> Any:
    if name == "length":
        return float(array.length)
    methods = {
        "push": lambda interp, this, args: _array_push(array, args),
        "pop": lambda interp, this, args: _array_pop(array),
        "shift": lambda interp, this, args: _array_shift(array),
        "unshift": lambda interp, this, args: _array_unshift(array, args),
        "join": lambda interp, this, args: _array_join(array, args),
        "indexOf": lambda interp, this, args: _array_index_of(array, args),
        "slice": lambda interp, this, args: _array_slice(array, args),
        "concat": lambda interp, this, args: _array_concat(array, args),
        "reverse": lambda interp, this, args: _array_reverse(array),
        "sort": lambda interp, this, args: _array_sort(interp, array, args),
        "map": lambda interp, this, args: _array_map(interp, array, args),
        "filter": lambda interp, this, args: _array_filter(interp, array, args),
        "forEach": lambda interp, this, args: _array_for_each(interp, array, args),
    }
    if name in methods:
        return NativeFunction(name, methods[name])
    return UNDEFINED


def _array_push(array: JSArray, args: list[Any]) -> float:
    array.elements.extend(args)
    return float(array.length)


def _array_pop(array: JSArray) -> Any:
    return array.elements.pop() if array.elements else UNDEFINED


def _array_join(array: JSArray, args: list[Any]) -> str:
    separator = to_string(args[0]) if args else ","
    return separator.join(to_string(element) for element in array.elements)


def _array_index_of(array: JSArray, args: list[Any]) -> float:
    needle = args[0] if args else UNDEFINED
    for index, element in enumerate(array.elements):
        if _strict_equals(element, needle):
            return float(index)
    return -1.0


def _array_slice(array: JSArray, args: list[Any]) -> JSArray:
    start = int(to_number(args[0])) if args else 0
    end = int(to_number(args[1])) if len(args) > 1 else array.length
    return JSArray(array.elements[start:end])


def _array_concat(array: JSArray, args: list[Any]) -> JSArray:
    merged = list(array.elements)
    for arg in args:
        if isinstance(arg, JSArray):
            merged.extend(arg.elements)
        else:
            merged.append(arg)
    return JSArray(merged)


def _array_shift(array: JSArray) -> Any:
    return array.elements.pop(0) if array.elements else UNDEFINED


def _array_unshift(array: JSArray, args: list[Any]) -> float:
    array.elements[0:0] = args
    return float(array.length)


def _array_reverse(array: JSArray) -> JSArray:
    array.elements.reverse()
    return array


def _array_sort(interp: "Interpreter", array: JSArray, args: list[Any]) -> JSArray:
    if args and is_callable(args[0]):
        comparator = args[0]
        import functools

        def compare(a: Any, b: Any) -> int:
            result = to_number(interp.call_function(comparator, [a, b]))
            if result < 0:
                return -1
            if result > 0:
                return 1
            return 0

        array.elements.sort(key=functools.cmp_to_key(compare))
    else:
        array.elements.sort(key=to_string)
    return array


def _array_map(interp: "Interpreter", array: JSArray, args: list[Any]) -> JSArray:
    if not args or not is_callable(args[0]):
        raise JsTypeError("Array.map expects a function")
    fn = args[0]
    return JSArray(
        [
            interp.call_function(fn, [element, float(index)])
            for index, element in enumerate(array.elements)
        ]
    )


def _array_filter(interp: "Interpreter", array: JSArray, args: list[Any]) -> JSArray:
    if not args or not is_callable(args[0]):
        raise JsTypeError("Array.filter expects a function")
    fn = args[0]
    return JSArray(
        [
            element
            for index, element in enumerate(array.elements)
            if is_truthy(interp.call_function(fn, [element, float(index)]))
        ]
    )


def _array_for_each(interp: "Interpreter", array: JSArray, args: list[Any]) -> Any:
    if not args or not is_callable(args[0]):
        raise JsTypeError("Array.forEach expects a function")
    fn = args[0]
    for index, element in enumerate(array.elements):
        interp.call_function(fn, [element, float(index)])
    return UNDEFINED


def _array_set_length(array: JSArray, value: Any) -> None:
    new_length = int(to_number(value))
    if new_length < 0:
        raise JsTypeError("invalid array length")
    if new_length < array.length:
        del array.elements[new_length:]
    else:
        array.elements.extend([UNDEFINED] * (new_length - array.length))


def _string_member(text: str, name: str) -> Any:
    if name == "length":
        return float(len(text))
    methods = {
        "charAt": lambda interp, this, args: (
            text[int(to_number(args[0]))] if args and 0 <= int(to_number(args[0])) < len(text) else ""
        ),
        "indexOf": lambda interp, this, args: float(text.find(to_string(args[0]) if args else "undefined")),
        "lastIndexOf": lambda interp, this, args: float(text.rfind(to_string(args[0]) if args else "undefined")),
        "substring": lambda interp, this, args: _substring(text, args),
        "slice": lambda interp, this, args: _string_slice(text, args),
        "split": lambda interp, this, args: _string_split(text, args),
        "toLowerCase": lambda interp, this, args: text.lower(),
        "toUpperCase": lambda interp, this, args: text.upper(),
        "replace": lambda interp, this, args: text.replace(to_string(args[0]), to_string(args[1]), 1),
        "trim": lambda interp, this, args: text.strip(),
        "concat": lambda interp, this, args: text + "".join(to_string(a) for a in args),
        "charCodeAt": lambda interp, this, args: _char_code_at(text, args),
        "startsWith": lambda interp, this, args: text.startswith(to_string(args[0]) if args else "undefined"),
        "endsWith": lambda interp, this, args: text.endswith(to_string(args[0]) if args else "undefined"),
        "includes": lambda interp, this, args: (to_string(args[0]) if args else "undefined") in text,
        "repeat": lambda interp, this, args: text * max(0, int(to_number(args[0])) if args else 0),
    }
    if name in methods:
        return NativeFunction(name, methods[name])
    return UNDEFINED


def _substring(text: str, args: list[Any]) -> str:
    start = max(0, int(to_number(args[0]))) if args else 0
    end = max(0, int(to_number(args[1]))) if len(args) > 1 else len(text)
    if start > end:
        start, end = end, start
    return text[start:end]


def _string_slice(text: str, args: list[Any]) -> str:
    start = int(to_number(args[0])) if args else 0
    end = int(to_number(args[1])) if len(args) > 1 else len(text)
    return text[slice(start, end)]


def _string_split(text: str, args: list[Any]) -> JSArray:
    if not args or args[0] is UNDEFINED:
        return JSArray([text])
    separator = to_string(args[0])
    if separator == "":
        return JSArray(list(text))
    return JSArray(text.split(separator))


def _char_code_at(text: str, args: list[Any]) -> float:
    index = int(to_number(args[0])) if args else 0
    if 0 <= index < len(text):
        return float(ord(text[index]))
    return float("nan")


def _number_member(value: Any, name: str) -> Any:
    methods = {
        "toFixed": lambda interp, this, args: (
            f"{float(value):.{int(to_number(args[0])) if args else 0}f}"
        ),
        "toString": lambda interp, this, args: to_string(float(value)),
    }
    if name in methods:
        return NativeFunction(name, methods[name])
    return UNDEFINED


# -- global builtins --------------------------------------------------------------


def _parse_int(interp: Interpreter, this: Any, args: list[Any]) -> float:
    text = to_string(args[0]).strip() if args else ""
    radix = int(to_number(args[1])) if len(args) > 1 and args[1] is not UNDEFINED else 10
    sign = 1
    if text[:1] in "+-":
        if text[0] == "-":
            sign = -1
        text = text[1:]
    if radix == 16 and text.lower().startswith("0x"):
        text = text[2:]
    digits = ""
    for char in text:
        try:
            if int(char, radix) >= 0:
                digits += char
        except ValueError:
            break
    if not digits:
        return float("nan")
    return float(sign * int(digits, radix))


def _parse_float(interp: Interpreter, this: Any, args: list[Any]) -> float:
    text = to_string(args[0]).strip() if args else ""
    import re

    match = re.match(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", text)
    return float(match.group(0)) if match else float("nan")


def _is_nan(interp: Interpreter, this: Any, args: list[Any]) -> bool:
    number = to_number(args[0]) if args else float("nan")
    return number != number


def _to_string_builtin(interp: Interpreter, this: Any, args: list[Any]) -> str:
    return to_string(args[0]) if args else ""


def _to_number_builtin(interp: Interpreter, this: Any, args: list[Any]) -> float:
    return to_number(args[0]) if args else 0.0


def _json_parse(interp: Interpreter, this: Any, args: list[Any]) -> Any:
    import json

    text = to_string(args[0]) if args else "undefined"
    try:
        return _python_to_js(json.loads(text))
    except ValueError as error:
        raise JsRuntimeError(f"JSON.parse: {error}") from None


def _json_stringify(interp: Interpreter, this: Any, args: list[Any]) -> Any:
    import json

    if not args:
        return UNDEFINED
    try:
        return json.dumps(_js_to_python(args[0]))
    except (TypeError, ValueError):
        return UNDEFINED


def _python_to_js(value: Any) -> Any:
    if isinstance(value, dict):
        return JSObject({key: _python_to_js(item) for key, item in value.items()})
    if isinstance(value, list):
        return JSArray([_python_to_js(item) for item in value])
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _js_to_python(value: Any) -> Any:
    if value is UNDEFINED:
        return None
    if isinstance(value, JSObject):
        return {key: _js_to_python(item) for key, item in value.properties.items()}
    if isinstance(value, JSArray):
        return [_js_to_python(item) for item in value.elements]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _encode_uri(interp: Interpreter, this: Any, args: list[Any]) -> str:
    from urllib.parse import quote

    return quote(to_string(args[0]) if args else "undefined", safe="")


def _math1(fn: Any) -> Any:
    def wrapper(interp: Interpreter, this: Any, args: list[Any]) -> float:
        return float(fn(to_number(args[0]) if args else float("nan")))

    return wrapper


def _math2(fn: Any) -> Any:
    def wrapper(interp: Interpreter, this: Any, args: list[Any]) -> float:
        a = to_number(args[0]) if args else float("nan")
        b = to_number(args[1]) if len(args) > 1 else float("nan")
        return float(fn(a, b))

    return wrapper


def _math_var(fn: Any) -> Any:
    def wrapper(interp: Interpreter, this: Any, args: list[Any]) -> float:
        if not args:
            return float("-inf") if fn is max else float("inf")
        return float(fn(to_number(argument) for argument in args))

    return wrapper
