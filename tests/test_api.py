import twistclass

#: the names ``from twistclass import *`` exports; removing or adding one is
#: an API change, argued in CHANGES.md, and edits this list with it
PUBLIC_API = [
    "AIRPLANE", "Alphabet", "BoundExceeded", "BranchAmbiguity", "CORABBIT",
    "ClassLabel", "Diverged", "Endo", "F14", "F34", "F512", "FI", "F_MINUS_I",
    "GenWord", "MooreDiagram", "NotContracting", "PunctureProximity", "RABBIT",
    "Recursion", "WreathElem", "act", "action_equal", "automata_distinct",
    "homotopy_shift", "is_kernel_element", "is_trivial_action", "moore_diagram",
    "nucleus", "obstructed", "phi_apply", "restrict", "substitute_recursion",
    "twist_recursion",
]


def test_public_api_is_pinned():
    names = twistclass.__all__
    assert sorted(names) == PUBLIC_API
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(twistclass, name) is not None, name
