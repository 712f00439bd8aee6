"""Hypothesis strategy that garbles the text formats for parser fuzzing.

Mutations mimic damaged files: characters replaced or inserted from the
formats' own alphabet, spans deleted, the text truncated mid-line, header
keys and mode words misspelt, and lines dropped or duplicated.
"""

from __future__ import annotations

from hypothesis import strategies as st

ALPHABET = "0123456789-,:=; \n\tabcdeilmnoprsuxADFMNRS_."
MISSPELLINGS = (
    ("n=", "m="),
    ("mode=", "mod="),
    ("scheme=", "schema="),
    ("seed=", "sed="),
    ("source=", "src="),
    ("single:", "single"),
    ("single:", "single:single:"),
    ("allpairs", "allpair"),
    ("=", "=="),
    (":", "::"),
    (",", ",,"),
)


@st.composite
def garbled(draw, text: str) -> str:
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(
            st.sampled_from(("replace", "delete", "insert", "truncate", "misspell", "lines"))
        )
        pos = draw(st.integers(0, len(text)))
        if kind == "replace" and text:
            pos = min(pos, len(text) - 1)
            text = text[:pos] + draw(st.sampled_from(ALPHABET)) + text[pos + 1 :]
        elif kind == "delete":
            end = draw(st.integers(pos, min(len(text), pos + 8)))
            text = text[:pos] + text[end:]
        elif kind == "insert":
            text = text[:pos] + draw(st.text(ALPHABET, max_size=6)) + text[pos:]
        elif kind == "truncate":
            text = text[:pos]
        elif kind == "misspell":
            old, new = draw(st.sampled_from(MISSPELLINGS))
            text = text.replace(old, new, 1)
        else:
            lines = text.splitlines()
            if lines:
                i = draw(st.integers(0, len(lines) - 1))
                if draw(st.booleans()):
                    del lines[i]
                else:
                    lines.insert(i, lines[i])
            text = "\n".join(lines)
    return text


def texts(valid: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """Garbled copies of valid texts, plus arbitrary text."""
    return st.one_of(valid.flatmap(garbled), st.text(ALPHABET), st.text())
