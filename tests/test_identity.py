"""Every CLI answer on the identity corpus matches its recorded digest."""

import identity_corpus


def test_identity_corpus_unchanged():
    changed = identity_corpus.differences(identity_corpus.load(), identity_corpus.record())
    assert not changed, f"{len(changed)} entries differ, first: {changed[:5]}"
