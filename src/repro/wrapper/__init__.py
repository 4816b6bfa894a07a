"""Phase 2: the robustness wrapper generator and its runtime."""

from repro.wrapper.checks import CheckConfig, CheckLibrary, MAX_STRING_SCAN
from repro.wrapper.codegen import (
    check_expression,
    generate_checks_header,
    generate_preamble,
    generate_wrapper_function,
    generate_wrapper_library,
)
from repro.wrapper.program import (
    PROGRAM_VERSION,
    CheckProgram,
    ProgramContext,
    clear_program_cache,
    compile_program,
    program_cache_size,
    program_for,
)
from repro.wrapper.relational import BUFFER_PLANS, BufferPlan
from repro.wrapper.state import DEFAULT_LOG_CAP, WrapperState
from repro.wrapper.wrapper import WrapperLibrary, WrapperPolicy, WrapperStats

__all__ = [
    "BUFFER_PLANS",
    "BufferPlan",
    "CheckConfig",
    "CheckLibrary",
    "CheckProgram",
    "DEFAULT_LOG_CAP",
    "MAX_STRING_SCAN",
    "PROGRAM_VERSION",
    "ProgramContext",
    "WrapperLibrary",
    "WrapperPolicy",
    "WrapperState",
    "WrapperStats",
    "check_expression",
    "clear_program_cache",
    "compile_program",
    "generate_checks_header",
    "generate_preamble",
    "generate_wrapper_function",
    "generate_wrapper_library",
    "program_cache_size",
    "program_for",
]
