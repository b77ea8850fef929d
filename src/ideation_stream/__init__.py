"""Streaming suicidal-ideation text classifier.

Two phases: batch training/evaluation of bag-of-n-grams classifiers on a
labeled corpus, and real-time micro-batch prediction over an embedded
pub/sub commit log.

Submodules are imported explicitly (``ideation_stream.corpus``,
``ideation_stream.broker``, ...) so that lightweight consumers such as the
broker do not pull in numpy.
"""

__version__ = "0.1.0"
