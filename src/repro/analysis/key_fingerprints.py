"""Committed AST fingerprints of the key-building surface, per KEY_VERSION.

Maintained by ``python -m repro.analysis --write-key-fingerprint``;
checked by the ``key-version-fingerprint`` rule.  The digest covers the
docstring-stripped ASTs of the definitions listed in
:data:`repro.analysis.checkers.key_fingerprint.FINGERPRINTED_DEFINITIONS`.

Workflow (see ``docs/analysis.md``): change key semantics -> bump
:data:`repro.cache.keys.KEY_VERSION` -> run the writer -> commit this
file alongside the change.  Re-recording *without* a bump is reserved
for provably semantics-neutral refactors.
"""

#: KEY_VERSION -> hex SHA-256 of the key-building AST surface
KEY_FINGERPRINTS: "dict[int, str]" = {
    1: "d05f993f081a40e4c06f6b4680a69e747ad68a966900c6c330107b82064034cd",
}
