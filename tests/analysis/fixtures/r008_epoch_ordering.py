"""R008 positive fixture: an epoch tag compared by order."""


class Service:
    def __init__(self) -> None:
        self._epoch = 0

    def advance(self, count) -> None:
        if count < self._epoch:  # ordering on an epoch tag -> finding
            return
        self._epoch = count
