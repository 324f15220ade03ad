"""What the traced run wraps: the public entry points of each layer.

Layers are the modules of the package.  ``combinatorics`` and ``hecke`` are
not wrapped: their calls are too fine-grained (hundreds of thousands of
permutation products per job), so their time counts as self time of the
wrapped caller.  Each target is (qualified name, layer, note), where a note
sees the call's arguments and updates the tracer's counts.
"""

COEFF_OPS = [
    "coefficients.Coeff." + op
    for op in (
        "__add__",
        "__neg__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__truediv__",
        "__rtruediv__",
        "inverse",
        "__pow__",
    )
]


def _note_reduce(tracer, args, kwargs):
    engine, f, u = args
    key = (id(engine), f, u)
    seen = tracer.counts.setdefault("_reduce_seen", set())
    if key in seen:
        tracer.bump("reduce_repeats")
    else:
        seen.add(key)


def _note_gram_det(tracer, args, kwargs):
    spec = args[3] if len(args) > 3 else kwargs.get("spec")
    if getattr(spec, "characteristic", 0):
        tracer.bump("fp_dets")
    else:
        tracer.bump("symbolic_dets")


def _layer(names, layer, notes=None):
    notes = notes or {}
    return [(f"{layer}.{name}", layer, notes.get(name)) for name in names]


TARGETS = (
    [(name, "coefficients", None) for name in COEFF_OPS]
    + _layer(["Coeff.__str__", "specialize", "parse_coeff"], "coefficients")
    + _layer(
        [
            "Engine.reduce",
            "Engine.sand",
            "Engine.right_mul_gen",
            "Engine.left_mul_gen",
            "Engine.left_mul_sigma_T",
            "Engine.sigma",
            "Engine.apply_letters",
            "Engine.mul",
            "AlgebraElt.__add__",
            "AlgebraElt.__sub__",
            "AlgebraElt.__neg__",
            "AlgebraElt.__eq__",
            "AlgebraElt.scale",
            "mul",
            "right_mul_gen",
            "sigma",
            "elt_from_letters",
            "generator_elt",
            "jm",
            "e_index",
            "all_normal_words",
            "MulTable.build",
            "MulTable.load_or_build",
            "MulTable.save",
            "MulTable.right_mul_gen",
        ],
        "algebra",
        {"Engine.reduce": _note_reduce},
    )
    + _layer(
        [
            "cell_module",
            "specialized_gram",
            "murphy_expand",
            "CellModule.elements",
            "CellModule.vector",
            "CellModule.act",
            "CellModule.act_elt",
            "CellModule.gram",
            "CellModule.jm_elements",
            "CellModule.transition",
            "CellModule.transition_inv",
            "CellModule.jm_matrix",
            "CellModule.check_triangular",
            "CellModule.filtration_check",
        ],
        "cells",
    )
    + _layer(
        ["mat_mul", "mat_rank", "mat_det", "mat_inverse", "kernel_basis", "in_row_span"],
        "linalg",
    )
    + _layer(
        ["scan", "gram_det_at", "brute_semisimple", "criterion", "bad_exponent_set"],
        "semisimple",
        {"gram_det_at": _note_gram_det},
    )
)
